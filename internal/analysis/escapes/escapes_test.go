package escapes

import (
	"strings"
	"testing"
)

// moduleCfg points the gate at the real module from this package's directory.
func moduleCfg() Config {
	return Config{ModuleDir: "../../.."}
}

func TestCollectHotRanges(t *testing.T) {
	ranges, err := collectHotRanges(moduleCfg().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]hotRange{}
	for _, r := range ranges {
		byName[r.file+":"+r.name] = r
		if r.start <= 0 || r.end < r.start {
			t.Errorf("bad range for %s:%s: [%d,%d]", r.file, r.name, r.start, r.end)
		}
	}
	for _, want := range []string{
		"internal/kernels/csr.go:csrRowRange",
		"internal/kernels/hyb.go:hybPhases.func", // factory closure, not the factory
		"internal/kernels/kernels.go:RunPooled",
		"internal/kernels/bcsr.go:bcsrGenericRange",
		"internal/autotune/runtime.go:MulVec",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("annotated body %s not collected", want)
		}
	}
	if _, ok := byName["internal/kernels/hyb.go:hybPhases"]; ok {
		t.Error("factory body itself must not be gated, only its returned closure")
	}
}

func TestMatchEntriesNormalises(t *testing.T) {
	cfg := moduleCfg().withDefaults()
	ranges := []hotRange{
		{file: "internal/kernels/csr.go", start: 10, end: 20, name: "csrChunk"},
	}
	out := strings.Join([]string{
		"./internal/kernels/csr.go:12:7: make([]go.shape.float64, n) escapes to heap",
		"internal/kernels/csr.go:12:7: make([]go.shape.float32, n) escapes to heap", // dup after shape normalisation
		"./internal/kernels/csr.go:15:3: kernels.x does not escape",                 // not an escape
		"./internal/kernels/csr.go:40:3: make([]int, n) escapes to heap",            // outside the range
		"./internal/kernels/coo.go:12:3: make([]int, n) escapes to heap",            // other file
	}, "\n")
	entries := matchEntries(cfg, ranges, out)
	want := []string{"internal/kernels/csr.go:csrChunk: make([]go.shape.T, n) escapes to heap"}
	if len(entries) != 1 || entries[0] != want[0] {
		t.Errorf("entries = %q, want %q", entries, want)
	}
}

func TestGateAgainstBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module")
	}
	fresh, stale, err := Check(moduleCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) > 0 {
		t.Errorf("hot-path escapes missing from baseline: %q", fresh)
	}
	if len(stale) > 0 {
		t.Logf("stale baseline entries (not a failure): %q", stale)
	}
}
