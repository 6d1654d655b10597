// Package escapes implements smat-lint's escape-analysis regression gate.
//
// The hot-path analyzer proves the annotated functions contain no
// heap-allocating constructs, but the compiler can still decide that a
// parameter or local escapes (interface boxing introduced by a refactor, a
// captured variable, a slice whose bound stopped being provable). The gate
// closes that hole empirically: it runs the real compiler with -m=1 over the
// module, keeps the "escapes to heap" / "moved to heap" diagnostics that land
// inside //smat:hotpath (and hotpath-factory closure) bodies in the gated
// directories, and compares them against a checked-in baseline. A new entry
// fails the build; intentional changes re-baseline with -update-escapes.
//
// Entries are keyed by file and enclosing function, not line numbers, so
// unrelated edits don't churn the baseline; generic shape names
// (go.shape.float64 etc.) are normalised to go.shape.T so the entry set is
// identical across instantiations.
//
// The compile itself is shared with the bce gate through
// compilediag.Build: both request -m=1 plus the check_bce debug flag, so one
// compiler pass feeds both baselines.
package escapes

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"smat/internal/analysis/compilediag"
)

// Config parameterises the gate.
type Config struct {
	// ModuleDir is the module root the build runs in ("." by default).
	ModuleDir string
	// Patterns are the build patterns (default ./...). Building the whole
	// module matters: generic kernels are only compiled — and escape-analysed
	// — inside the packages that instantiate them.
	Patterns []string
	// GcflagsScope is the package pattern receiving the diagnostic flags
	// (default smat/...).
	GcflagsScope string
	// HotDirs are module-relative directories whose annotated functions are
	// gated (default internal/kernels, internal/autotune).
	HotDirs []string
	// BaselinePath is the baseline file, module-relative
	// (default internal/analysis/escapes/baseline.txt).
	BaselinePath string
}

func (c Config) withDefaults() Config {
	if c.ModuleDir == "" {
		c.ModuleDir = "."
	}
	if len(c.Patterns) == 0 {
		c.Patterns = []string{"./..."}
	}
	if c.GcflagsScope == "" {
		c.GcflagsScope = "smat/..."
	}
	if len(c.HotDirs) == 0 {
		c.HotDirs = []string{"internal/kernels", "internal/autotune"}
	}
	if c.BaselinePath == "" {
		c.BaselinePath = "internal/analysis/escapes/baseline.txt"
	}
	return c
}

// hotRange is one gated body: an annotated function, or a closure returned by
// an annotated factory.
type hotRange struct {
	file       string // module-relative path
	start, end int    // line range, inclusive
	name       string // function name ("hybPhases.func" for closures)
}

// Current compiles the module and returns the sorted, normalised escape
// entries inside gated hot bodies.
func Current(cfg Config) ([]string, error) {
	cfg = cfg.withDefaults()
	ranges, err := collectHotRanges(cfg)
	if err != nil {
		return nil, err
	}
	out, err := compilediag.Build(cfg.ModuleDir, cfg.GcflagsScope, compilediag.EscapesAndBCEFlags, cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	return matchEntries(cfg, ranges, out), nil
}

// Check returns the entries new against the baseline and the stale baseline
// entries no longer produced. Only new entries are regressions.
func Check(cfg Config) (fresh, stale []string, err error) {
	cfg = cfg.withDefaults()
	current, err := Current(cfg)
	if err != nil {
		return nil, nil, err
	}
	baseline, err := compilediag.ReadBaseline(filepath.Join(cfg.ModuleDir, cfg.BaselinePath))
	if err != nil {
		return nil, nil, err
	}
	fresh, stale = compilediag.Diff(current, baseline)
	return fresh, stale, nil
}

// Update rewrites the baseline with the current entry set.
func Update(cfg Config) ([]string, error) {
	cfg = cfg.withDefaults()
	current, err := Current(cfg)
	if err != nil {
		return nil, err
	}
	header := []string{
		"smat-lint escape-analysis baseline: accepted heap escapes inside",
		"//smat:hotpath bodies. Regenerate with smat-lint -update-escapes.",
	}
	path := filepath.Join(cfg.ModuleDir, cfg.BaselinePath)
	if err := compilediag.WriteBaseline(path, header, current); err != nil {
		return nil, err
	}
	return current, nil
}

// collectHotRanges parses the gated directories (syntax only — no type
// information is needed to find directives) and gathers annotated bodies.
func collectHotRanges(cfg Config) ([]hotRange, error) {
	spans, err := compilediag.Funcs(cfg.ModuleDir, cfg.HotDirs)
	if err != nil {
		return nil, err
	}
	var ranges []hotRange
	for _, s := range compilediag.HotSpans(spans) {
		ranges = append(ranges, hotRange{file: s.File, start: s.Start, end: s.End, name: s.Name})
	}
	return ranges, nil
}

// matchEntries keeps escape diagnostics inside hot ranges and normalises them
// into stable "file:function: message" entries.
func matchEntries(cfg Config, ranges []hotRange, buildOutput string) []string {
	byFile := map[string][]hotRange{}
	for _, r := range ranges {
		byFile[r.file] = append(byFile[r.file], r)
	}
	seen := map[string]bool{}
	for _, d := range compilediag.Parse(buildOutput) {
		if !strings.Contains(d.Msg, "escapes to heap") && !strings.Contains(d.Msg, "moved to heap") {
			continue
		}
		for _, r := range byFile[d.File] {
			if d.Line >= r.start && d.Line <= r.end {
				msg := compilediag.NormalizeShapes(d.Msg)
				seen[fmt.Sprintf("%s:%s: %s", d.File, r.name, msg)] = true
				break
			}
		}
	}
	entries := make([]string, 0, len(seen))
	for e := range seen {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	return entries
}
