package main

import (
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func smokeOptions(trace bool) options {
	return options{seed: 7, seconds: 0.2, trace: trace}
}

func mustRoot(t *testing.T) string {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]value) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSmokeEveryWorkload runs every workload at the S preset, untraced and
// traced, and holds the emitted metric names to the declared lists.
func TestSmokeEveryWorkload(t *testing.T) {
	root := mustRoot(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := runWorkload(io.Discard, root, w, presets["S"], smokeOptions(trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.name, trace,
					rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted, rec.Failures)
			}
			want := names(endToEndMetrics)
			if trace {
				want = names(perLayerMetrics)
			}
			if got := keys(rec.Result.Metrics); !equalStrings(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.name, trace, got, want)
			}
			for name, v := range rec.Result.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
				}
			}
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the program's own lists
// from drifting apart.
func TestManifestMatchesCode(t *testing.T) {
	man, err := loadManifest(mustRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(names(man.EndToEnd), names(endToEndMetrics)) {
		t.Errorf("end_to_end: manifest %v, code %v", names(man.EndToEnd), names(endToEndMetrics))
	}
	if !equalStrings(names(man.PerLayer), names(perLayerMetrics)) {
		t.Errorf("per_layer: manifest %v, code %v", names(man.PerLayer), names(perLayerMetrics))
	}
	byName := map[string]metricDef{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		byName[d.Name] = d
	}
	for _, d := range append(append([]metricDef{}, man.EndToEnd...), man.PerLayer...) {
		if byName[d.Name] != d {
			t.Errorf("%s: manifest %+v, code %+v", d.Name, d, byName[d.Name])
		}
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(man.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, code %q", i, man.Workloads[i].Name, w.name)
		}
	}
	if len(man.Paths) != 1 || man.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", man.Paths)
	}
}

// TestSameSeedSameInputs: a seed fixes the inputs and every exact count.
func TestSameSeedSameInputs(t *testing.T) {
	root := mustRoot(t)
	counts := []string{"solve.cg_iterations", "amg.levels", "amg.pcg_iterations", "matrix.convert_fill.DIA", "matrix.convert_fill.ELL"}
	for _, w := range workloads {
		if w.name != "cold_tune" && w.name != "cg_solve" {
			continue
		}
		a, err := runWorkload(io.Discard, root, w, presets["S"], smokeOptions(true))
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(io.Discard, root, w, presets["S"], smokeOptions(true))
		if err != nil {
			t.Fatal(err)
		}
		if a.InputHash != b.InputHash {
			t.Errorf("%s: same seed, input hashes %s and %s", w.name, a.InputHash, b.InputHash)
		}
		for _, c := range counts {
			if a.Result.Metrics[c] != b.Result.Metrics[c] {
				t.Errorf("%s: %s differs across identical runs: %v vs %v", w.name, c, a.Result.Metrics[c], b.Result.Metrics[c])
			}
		}
	}
	// cold_tune's structures are fixed and the seed draws values and vectors;
	// everywhere else the seed draws the structures too.
	p := presets["S"]
	c1, c2 := coldInputs(p, 1), coldInputs(p, 2)
	if len(c1) < 8 {
		t.Errorf("cold_tune S roster has %d matrices, want at least 8", len(c1))
	}
	if combineHashes(c1) != combineHashes(c2) {
		t.Error("seeds 1 and 2 generated different cold_tune structures")
	}
	if reflect.DeepEqual(c1[0].x, c2[0].x) || reflect.DeepEqual(c1[0].m.Vals, c2[0].m.Vals) {
		t.Error("seeds 1 and 2 drew identical cold_tune values or vectors")
	}
	if combineHashes(buildInputs(serveSpecs(p.serveScale), 1)) == combineHashes(buildInputs(serveSpecs(p.serveScale), 2)) {
		t.Error("seeds 1 and 2 generated identical serve_hit inputs")
	}
}

func TestStatsHelpers(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want)) }
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := percentile(v, 99); got != 5 {
		t.Errorf("p99 of 5 samples = %v, want the maximum", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := percentile(hundred, 99); got != 99 {
		t.Errorf("p99 of 1..100 = %v", got)
	}
	if got := percentile(hundred, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v", got)
	}
	if got := geomean([]float64{0, 4, 4}); !near(got, 4) {
		t.Errorf("geomean skipping zero = %v", got)
	}
	if got := selfTime(10, 3, 4); got != 3 {
		t.Errorf("selfTime = %v", got)
	}
	if got := selfTime(1, 3); got != 0 {
		t.Errorf("selfTime below zero = %v", got)
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(ten); !near(got, 1) {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	if got := cv([]float64{2, 2, 2}); got != 0 {
		t.Errorf("cv of constants = %v", got)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.add(0, 1, "smat", "root", tr.origin, 10e9, false)
	tr.add(root, 1, "features", "child", tr.origin, 3e9, true)
	mid := tr.add(root, 1, "autotune", "child", tr.origin, 4e9, false)
	tr.add(mid, 1, "kernels", "grandchild", tr.origin, 1e9, true)
	by, rootSec := tr.layerSeconds()
	if rootSec != 10 {
		t.Fatalf("root seconds = %v", rootSec)
	}
	want := map[string]float64{"smat": 3, "features": 3, "autotune": 3, "kernels": 1}
	for l, s := range want {
		if by[l] != s {
			t.Errorf("layer %s self = %v, want %v", l, by[l], s)
		}
	}
	var nilTracer *tracer
	if id := nilTracer.add(0, 1, "x", "y", tr.origin, 1, false); id != 0 {
		t.Errorf("nil tracer recorded span %d", id)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		b      []float64
		higher bool
		want   string
	}{
		{scale(1.02), false, "same"},
		{scale(1.2), false, "worse"},
		{scale(0.8), false, "better"},
		{scale(1.2), true, "better"},
		{scale(0.8), true, "worse"},
		{[]float64{60, 150, 70, 140, 80, 130, 90, 120, 100, 110}, false, "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(base, c.b, c.higher, 0.10); got != c.want {
			t.Errorf("verdict(median %v, higher=%v) = %s, want %s", median(c.b), c.higher, got, c.want)
		}
	}
}
