// Command smat-lint runs the project's own static analyzers and
// compiler-feedback gates over the tree, tests included:
//
//	go run ./cmd/smat-lint ./...
//
// Each check is one no other gate makes (DESIGN.md §8 has the audit).
// Analyzers (select a subset with -run):
//
//	hotpath     //smat:hotpath bodies: no slow calls, defer or boxed panics
//	kernelreg   kernel-table rows hold top-level functions only; factory
//	            closures capture no value parameter
//	syncsafety  raw 64-bit atomics misaligned under 32-bit layout rules
//	atomicorder one load per atomic pointer slot; wake tokens only for a
//	            claimed park
//
// Compiler-feedback gates (each on by default, run concurrently with the
// analyzers, one compile each):
//
//	-bce      hot-path bodies gaining a bounds check missing from
//	          internal/analysis/bce/baseline.txt fail the run
//	-inline   -m=2 decisions are checked against
//	          internal/analysis/inlinegate/policy.txt: policy inline entries
//	          must stay inlinable within their recorded cost (+slack),
//	          noinline entries must stay out of line
//
// After an intentional change, -update-bce rewrites the bounds-check
// baseline and -update-inline the recorded costs in the inline policy
// (violations other than cost drift still have to be resolved by hand).
// Regenerating the bce baseline drops its per-entry tracking comments; see
// the baseline header for the restore workflow.
//
// Exit status: 0 clean, 1 findings or gate regression, 2 usage/load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"smat/internal/analysis/atomicorder"
	"smat/internal/analysis/bce"
	"smat/internal/analysis/framework"
	"smat/internal/analysis/hotpath"
	"smat/internal/analysis/inlinegate"
	"smat/internal/analysis/kernelreg"
	"smat/internal/analysis/syncsafety"
)

var all = []*framework.Analyzer{
	hotpath.Analyzer,
	kernelreg.Analyzer,
	syncsafety.Analyzer,
	atomicorder.Analyzer,
}

// finding is the unified output record: an analyzer diagnostic or a gate
// regression.
type finding struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
	Note     bool // informational, does not fail the run
}

func (f finding) String() string {
	prefix := ""
	if f.File != "" {
		prefix = fmt.Sprintf("%s:%d:%d: ", f.File, f.Line, f.Col)
	}
	note := ""
	if f.Note {
		note = "note: "
	}
	return fmt.Sprintf("%s[%s] %s%s", prefix, f.Analyzer, note, f.Message)
}

func main() {
	var (
		runList      = flag.String("run", "", "comma-separated analyzer names (default: all)")
		bceGate      = flag.Bool("bce", true, "run the bounds-check regression gate")
		inlineGate   = flag.Bool("inline", true, "run the inlining policy gate")
		updateBCE    = flag.Bool("update-bce", false, "rewrite the bounds-check baseline from the current build")
		updateInline = flag.Bool("update-inline", false, "rewrite the inline policy's recorded costs from the current build")
	)
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := selectAnalyzers(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smat-lint:", err)
		os.Exit(2)
	}

	// The gates compile the module with diagnostic gcflags; kick them off
	// first so the builds overlap the loader's type-checking.
	gates := newGateRunner()
	if *updateBCE {
		gates.add("bce", func() ([]finding, error) {
			entries, err := bce.Update(bce.Config{})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "bce: baseline rewritten with %d entries (tracking comments dropped; restore them from git)\n", len(entries))
			return nil, nil
		})
	} else if *bceGate {
		gates.add("bce", func() ([]finding, error) {
			fresh, stale, err := bce.Check(bce.Config{})
			if err != nil {
				return nil, err
			}
			var out []finding
			for _, e := range fresh {
				out = append(out, gateFinding("bce", e,
					"new bounds check in a hot-path body (rerun with -update-bce if unavoidable, then annotate the baseline entry)"))
			}
			for _, e := range stale {
				f := gateFinding("bce", e, "baseline entry no longer produced — the check was eliminated; consider pruning")
				f.Note = true
				out = append(out, f)
			}
			return out, nil
		})
	}
	if *updateInline {
		gates.add("inline", func() ([]finding, error) {
			changed, err := inlinegate.Update(inlinegate.Config{})
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "inline: policy costs rewritten (%d entries changed)\n", len(changed))
			return nil, nil
		})
	} else if *inlineGate {
		gates.add("inline", func() ([]finding, error) {
			rep, err := inlinegate.Check(inlinegate.Config{})
			if err != nil {
				return nil, err
			}
			var out []finding
			for _, v := range rep.Violations {
				out = append(out, gateFinding("inline", v.Entry, fmt.Sprintf("%s: %s", v.Kind, v.Detail)))
			}
			for _, n := range rep.Notes {
				out = append(out, finding{Analyzer: "inline", Message: n, Note: true})
			}
			return out, nil
		})
	}

	pkgs, err := framework.Load(framework.LoadConfig{Tests: true}, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smat-lint: load:", err)
		os.Exit(2)
	}
	loadOK := true
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "smat-lint: %s: type error: %v\n", p.ImportPath, terr)
			loadOK = false
		}
	}
	if !loadOK {
		os.Exit(2)
	}

	diags, err := framework.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smat-lint:", err)
		os.Exit(2)
	}

	findings := make([]finding, 0, len(diags))
	for _, d := range diags {
		findings = append(findings, finding{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	gateFindings, gateErr := gates.wait()
	if gateErr != nil {
		fmt.Fprintln(os.Stderr, "smat-lint:", gateErr)
		os.Exit(2)
	}
	findings = append(findings, gateFindings...)

	failed := false
	for _, f := range findings {
		failed = failed || !f.Note
		fmt.Println(f)
	}
	if failed {
		os.Exit(1)
	}
}

// gateFinding builds a finding from a gate entry of the form
// "path/file.go:symbol: detail", recovering the file position when present.
func gateFinding(gate, entry, message string) finding {
	f := finding{Analyzer: gate, Message: fmt.Sprintf("%s: %s", entry, message)}
	if i := strings.Index(entry, ".go:"); i >= 0 {
		f.File = entry[:i+len(".go")]
		f.Line = 1
		f.Col = 1
	}
	return f
}

// gateRunner runs the enabled gates concurrently and collects their
// findings; the first gate error wins.
type gateRunner struct {
	wg       sync.WaitGroup
	mu       sync.Mutex
	findings []finding
	err      error
}

func newGateRunner() *gateRunner { return &gateRunner{} }

func (g *gateRunner) add(name string, fn func() ([]finding, error)) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		fs, err := fn()
		g.mu.Lock()
		defer g.mu.Unlock()
		if err != nil && g.err == nil {
			g.err = fmt.Errorf("%s: %w", name, err)
		}
		g.findings = append(g.findings, fs...)
	}()
}

func (g *gateRunner) wait() ([]finding, error) {
	g.wg.Wait()
	sort.Slice(g.findings, func(i, j int) bool {
		a, b := g.findings[i], g.findings[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return g.findings, g.err
}

func selectAnalyzers(runList string) ([]*framework.Analyzer, error) {
	if runList == "" {
		return all, nil
	}
	byName := map[string]*framework.Analyzer{}
	var names []string
	for _, a := range all {
		byName[a.Name] = a
		names = append(names, a.Name)
	}
	var out []*framework.Analyzer
	for _, name := range strings.Split(runList, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, strings.Join(names, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
