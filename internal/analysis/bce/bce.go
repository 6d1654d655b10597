// Package bce implements smat-lint's bounds-check-elimination regression
// gate.
//
// The kernels earn part of their measured wins by keeping bounds checks out
// of the element loops. The single-vector bodies a tuner binds
// (csrRowRangeUnroll4, cooRangeUnroll4, ellWidthRange, diaBlockedRange)
// are written so the only check left per element is the data-dependent
// gather (x[col], and y[row] for COO): operands are cut to the row, chunk or
// tile once — a slice check per row, group or tile — and the loops range over
// slices of one proven length. The other bodies are not check-free: the
// paper's Figure 2 loops, the row-major unrolled DIA/ELL bodies and the
// batched cascades still carry a check per unrolled lane, and the baseline
// says so entry by entry. Either way a harmless-looking refactor —
// reordering a slice header load, hoisting an index computation, widening an
// induction variable — can silently resurrect an IsInBounds branch per
// element and eat the speedups the bench artifacts record. The compiler will
// tell us, but only if asked: this gate runs
// `go build -gcflags=-d=ssa/check_bce/debug=1`, keeps the "Found
// IsInBounds" / "Found IsSliceInBounds" diagnostics landing inside
// //smat:hotpath bodies (and hotpath-factory closures), and diffs them
// against a checked-in baseline. A new entry fails CI; intentional changes
// re-baseline with `smat-lint -update-bce`.
//
// Entries are keyed "file:function: Found IsInBounds xN" where N counts
// distinct source positions (after go.shape collapsing) inside the body, so
// the baseline is insensitive to line renumbering but sensitive to a check
// appearing at a new position. A check inside an inlined callee is reported
// at the call, so it counts once per call site in the caller.
package bce

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"

	"smat/internal/analysis/compilediag"
)

// Config parameterises the gate; the zero value gates this module.
type Config struct {
	// ModuleDir is the module root the build runs in ("." by default).
	ModuleDir string
	// Patterns are the build patterns (default ./...).
	Patterns []string
	// GcflagsScope is the package pattern receiving the diagnostic flags
	// (default smat/...).
	GcflagsScope string
	// HotDirs are module-relative directories whose annotated functions are
	// gated (default internal/kernels, internal/autotune).
	HotDirs []string
	// BaselinePath is the baseline file, module-relative
	// (default internal/analysis/bce/baseline.txt).
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
		c.BaselinePath = "internal/analysis/bce/baseline.txt"
	}
	return c
}

// boundsCheckKinds are the check_bce diagnostic messages, in report order.
var boundsCheckKinds = []string{"Found IsInBounds", "Found IsSliceInBounds"}

// Current compiles the module with compilediag.BCEFlags and
// returns the sorted baseline entries: one per (hot function, check kind)
// with the count of distinct check positions.
func Current(cfg Config) ([]string, error) {
	cfg = cfg.withDefaults()
	spans, err := compilediag.Funcs(cfg.ModuleDir, cfg.HotDirs)
	if err != nil {
		return nil, err
	}
	hot := compilediag.HotSpans(spans)
	out, err := compilediag.Build(cfg.ModuleDir, cfg.GcflagsScope, compilediag.BCEFlags, cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	return matchEntries(hot, out), nil
}

// matchEntries attributes bounds-check diagnostics to hot bodies and folds
// them into "file:function: kind xN" entries, N counting distinct positions.
// Generic instantiations replay the same positions per shape; the position
// set dedupes them.
func matchEntries(hot []compilediag.FuncSpan, buildOutput string) []string {
	// positions[file:name][kind] = set of "line:col"
	positions := map[string]map[string]map[string]bool{}
	for _, d := range compilediag.Parse(buildOutput) {
		kind := ""
		for _, k := range boundsCheckKinds {
			if d.Msg == k {
				kind = k
				break
			}
		}
		if kind == "" {
			continue
		}
		span, ok := compilediag.Attribute(hot, d)
		if !ok {
			continue
		}
		key := span.File + ":" + span.Name
		if positions[key] == nil {
			positions[key] = map[string]map[string]bool{}
		}
		if positions[key][kind] == nil {
			positions[key][kind] = map[string]bool{}
		}
		positions[key][kind][fmt.Sprintf("%d:%d", d.Line, d.Col)] = true
	}
	var entries []string
	for key, kinds := range positions {
		for kind, posSet := range kinds {
			entries = append(entries, fmt.Sprintf("%s: %s x%d", key, kind, len(posSet)))
		}
	}
	sort.Strings(entries)
	return entries
}

// Check returns entries new against the baseline (regressions) and stale
// baseline entries no longer produced (safe cleanups).
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
		"smat-lint bounds-check-elimination baseline: surviving bounds checks",
		"inside //smat:hotpath bodies, counted as distinct positions per",
		"function. Regenerate with smat-lint -update-bce; a residual check in",
		"an unroll kernel needs a tracking comment here explaining why BCE",
		"cannot prove it away yet.",
		// smat-lint compiles the module with the toolchain it was built by
		// (`go run` uses one for both), and prove's reach moves by release.
		fmt.Sprintf("Produced with %s %s/%s.", runtime.Version(), runtime.GOOS, runtime.GOARCH),
	}
	path := filepath.Join(cfg.ModuleDir, cfg.BaselinePath)
	if err := compilediag.WriteBaseline(path, header, current); err != nil {
		return nil, err
	}
	return current, nil
}
