// Package inlinegate implements smat-lint's inlining-policy gate.
//
// The kernel dispatch design leans on two compiler behaviours that nothing
// in the type system pins down: the small range leaves (csrRowRange,
// diaRowRange, …) and tile cuts must stay cheap enough to inline into the
// chunk adapters the registry dispatches — csrRowRange falling out of line
// costs csr_basic 28 % more time per nonzero (policy.txt's header has the
// numbers) — and the outlined panic helpers (formatMismatch,
// aliasedVectors, …) must stay OUT of line so their format strings don't
// bloat the hot instruction stream. Both properties silently flip under
// refactors: one added branch pushes a leaf past the budget of 80; someone
// deletes a go:noinline pragma during a cleanup.
//
// The gate runs `go build -gcflags=-m=2`, parses the per-function inlining
// decisions (cost N, "exceeds budget", "marked go:noinline"), and enforces
// a declarative policy file:
//
//	inline internal/kernels/csr.go:csrRowRange cost=66
//	inline internal/kernels/dia_blocked.go:diaCut cost=22 slack=20
//	noinline internal/kernels/kernels.go:formatMismatch
//
// An `inline` entry fails when the function can no longer be inlined or
// its observed cost exceeds recorded+slack; any cost movement at all is
// reported as a non-failing drift note, so budgets are renegotiated
// consciously (-update-inline rewrites the recorded costs). A `noinline`
// entry fails when the function becomes inlinable. Entries naming
// functions the compiler no longer reports fail too — a silently deleted
// kernel is a policy bug, not a pass.
//
// Costs differ across compiler versions, so `slack` (default 40) absorbs
// toolchain skew; the committed costs are documentation of the last
// consciously accepted value, not an exact pin.
package inlinegate

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"smat/internal/analysis/compilediag"
)

// Config parameterises the gate; the zero value gates this module.
type Config struct {
	ModuleDir    string
	Patterns     []string
	GcflagsScope string
	// PolicyPath is the policy file, module-relative
	// (default internal/analysis/inlinegate/policy.txt).
	PolicyPath string
	// DefaultSlack is the cost tolerance for inline entries without an
	// explicit slack= (default 40, sized for compiler-version skew).
	DefaultSlack int
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
	if c.PolicyPath == "" {
		c.PolicyPath = "internal/analysis/inlinegate/policy.txt"
	}
	if c.DefaultSlack == 0 {
		c.DefaultSlack = 40
	}
	return c
}

// Violation is one policy failure.
type Violation struct {
	// Kind is one of: lost-inline, cost-exceeded, noinline-violated,
	// missing-function, malformed-policy.
	Kind string
	// Entry is the policy entry "file:name" (or the raw line for
	// malformed-policy).
	Entry string
	// Detail explains the failure with the observed decision.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (%s)", v.Entry, v.Detail, v.Kind)
}

// Report is the gate outcome: Violations fail CI, Notes (cost drift within
// slack) inform.
type Report struct {
	Violations []Violation
	Notes      []string
}

// policyEntry is one parsed policy line.
type policyEntry struct {
	inline bool
	file   string
	name   string
	cost   int
	slack  int // -1 = use default
	line   int
}

// decision is one -m=2 inlining decision, shape-normalized.
type decision struct {
	name       string // bracket-stripped: "kernels.csrChunk", "runCSRParallel.func2"
	canInline  bool
	cost       int  // for canInline, the reported cost; for budget failures, the excess cost
	noinlineMk bool // "marked go:noinline"
	reason     string
}

var (
	canRE    = regexp.MustCompile(`^can inline (\S+) with cost (\d+)(?: as: .*)?$`)
	cannotRE = regexp.MustCompile(`^cannot inline (\S+): (.*)$`)
	costRE   = regexp.MustCompile(`cost (\d+) exceeds budget`)
	brackRE  = regexp.MustCompile(`\[[^\[\]]*\]`)
)

// parseDecisions extracts per-function inlining decisions from -m=2 output,
// keyed by file. Generic instantiations collapse onto one name after
// bracket stripping; all their decisions are kept (a shape instantiation
// can be refused inlining while a concrete one is accepted — the gate
// judges the union).
func parseDecisions(buildOutput string) map[string][]decision {
	byFile := map[string][]decision{}
	for _, d := range compilediag.Parse(buildOutput) {
		msg := compilediag.NormalizeShapes(d.Msg)
		if m := canRE.FindStringSubmatch(msg); m != nil {
			cost, _ := strconv.Atoi(m[2])
			byFile[d.File] = append(byFile[d.File], decision{
				name: stripBrackets(m[1]), canInline: true, cost: cost,
			})
			continue
		}
		if m := cannotRE.FindStringSubmatch(msg); m != nil {
			dec := decision{name: stripBrackets(m[1]), reason: m[2]}
			if strings.Contains(m[2], "marked go:noinline") {
				dec.noinlineMk = true
			}
			if cm := costRE.FindStringSubmatch(m[2]); cm != nil {
				dec.cost, _ = strconv.Atoi(cm[1])
			}
			byFile[d.File] = append(byFile[d.File], dec)
		}
	}
	return byFile
}

// stripBrackets removes instantiation brackets so policy names are stable:
// "kernels.(*Library[go.shape.T]).RegisterHYB" → "kernels.(*Library).RegisterHYB".
// Applied twice for the nested method-receiver case.
func stripBrackets(s string) string {
	return brackRE.ReplaceAllString(brackRE.ReplaceAllString(s, ""), "")
}

// nameMatches reports whether a decision's (possibly package-qualified)
// name refers to the policy name: exact, or a ".name" suffix. The compiler
// qualifies generic and cross-package names ("kernels.csrChunk") but prints
// plain functions bare ("aliasedVectors"); policy names never carry the
// package.
func nameMatches(decisionName, policyName string) bool {
	return decisionName == policyName || strings.HasSuffix(decisionName, "."+policyName)
}

// ParsePolicy reads the policy file. Malformed lines become violations, not
// errors, so a typo'd policy fails the gate visibly instead of silently
// shrinking it.
func ParsePolicy(data string) ([]policyEntry, []Violation) {
	var entries []policyEntry
	var viols []Violation
	for i, raw := range strings.Split(data, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		bad := func(why string) {
			viols = append(viols, Violation{Kind: "malformed-policy", Entry: line,
				Detail: fmt.Sprintf("policy line %d: %s", i+1, why)})
		}
		if len(fields) < 2 {
			bad("want `inline file:name cost=N [slack=N]` or `noinline file:name`")
			continue
		}
		file, name, ok := splitEntry(fields[1])
		if !ok {
			bad("target must be file.go:function")
			continue
		}
		e := policyEntry{file: file, name: name, slack: -1, line: i + 1}
		switch fields[0] {
		case "inline":
			e.inline = true
			e.cost = -1
			valid := true
			for _, f := range fields[2:] {
				switch {
				case strings.HasPrefix(f, "cost="):
					n, err := strconv.Atoi(f[len("cost="):])
					if err != nil {
						bad("bad cost: " + f)
						valid = false
					}
					e.cost = n
				case strings.HasPrefix(f, "slack="):
					n, err := strconv.Atoi(f[len("slack="):])
					if err != nil {
						bad("bad slack: " + f)
						valid = false
					}
					e.slack = n
				default:
					bad("unknown field " + f)
					valid = false
				}
			}
			if !valid {
				continue
			}
			if e.cost < 0 {
				bad("inline entry needs cost=N (run -update-inline to record)")
				continue
			}
		case "noinline":
			if len(fields) > 2 {
				bad("noinline takes no options")
				continue
			}
		default:
			bad("unknown directive " + fields[0])
			continue
		}
		entries = append(entries, e)
	}
	return entries, viols
}

// splitEntry splits "path/file.go:name" at the .go: boundary (function
// names can contain dots for closures, so the last colon is wrong).
func splitEntry(s string) (file, name string, ok bool) {
	i := strings.Index(s, ".go:")
	if i < 0 || i+4 >= len(s) {
		return "", "", false
	}
	return s[:i+3], s[i+4:], true
}

// Check builds with -m=2 and evaluates the policy.
func Check(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	data, err := compilediag.ReadBaselineRaw(filepath.Join(cfg.ModuleDir, cfg.PolicyPath))
	if err != nil {
		return Report{}, err
	}
	out, err := compilediag.Build(cfg.ModuleDir, cfg.GcflagsScope, compilediag.InlineFlags, cfg.Patterns...)
	if err != nil {
		return Report{}, err
	}
	return evaluate(cfg, data, out), nil
}

// evaluate is Check minus the IO, for tests.
func evaluate(cfg Config, policyData, buildOutput string) Report {
	entries, viols := ParsePolicy(policyData)
	decisions := parseDecisions(buildOutput)
	rep := Report{Violations: viols}
	for _, e := range entries {
		var matched []decision
		for _, d := range decisions[e.file] {
			if nameMatches(d.name, e.name) {
				matched = append(matched, d)
			}
		}
		key := e.file + ":" + e.name
		if len(matched) == 0 {
			rep.Violations = append(rep.Violations, Violation{
				Kind: "missing-function", Entry: key,
				Detail: "no inlining decision reported — function deleted, renamed, or compiled out",
			})
			continue
		}
		if e.inline {
			rep.judgeInline(cfg, e, key, matched)
		} else {
			rep.judgeNoinline(e, key, matched)
		}
	}
	return rep
}

func (rep *Report) judgeInline(cfg Config, e policyEntry, key string, matched []decision) {
	maxCost, canInline := 0, false
	var refusal decision
	for _, d := range matched {
		if d.canInline {
			canInline = true
			if d.cost > maxCost {
				maxCost = d.cost
			}
		} else if !d.noinlineMk {
			refusal = d
		}
	}
	if !canInline {
		rep.Violations = append(rep.Violations, Violation{
			Kind: "lost-inline", Entry: key,
			Detail: "no longer inlinable: " + refusal.reason,
		})
		return
	}
	slack := e.slack
	if slack < 0 {
		slack = cfg.DefaultSlack
	}
	switch {
	case maxCost > e.cost+slack:
		rep.Violations = append(rep.Violations, Violation{
			Kind: "cost-exceeded", Entry: key,
			Detail: fmt.Sprintf("inline cost %d exceeds recorded %d + slack %d", maxCost, e.cost, slack),
		})
	case maxCost != e.cost:
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: inline cost drifted %d → %d (within slack %d; -update-inline to accept)",
			key, e.cost, maxCost, slack))
	}
	// A refusal alongside a success (one instantiation over budget) is worth
	// a note even when some shape still inlines.
	if refusal.reason != "" {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: one instantiation refused inlining: %s", key, refusal.reason))
	}
}

func (rep *Report) judgeNoinline(e policyEntry, key string, matched []decision) {
	sawMark := false
	for _, d := range matched {
		if d.canInline {
			rep.Violations = append(rep.Violations, Violation{
				Kind: "noinline-violated", Entry: key,
				Detail: fmt.Sprintf("panic helper became inlinable (cost %d) — go:noinline pragma lost?", d.cost),
			})
			return
		}
		if d.noinlineMk {
			sawMark = true
		}
	}
	if !sawMark {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%s: not inlined, but not via go:noinline (%s)", key, matched[0].reason))
	}
}

// Update rewrites cost= values in the policy file to the observed maxima,
// preserving comments, ordering, slack options, and noinline lines.
func Update(cfg Config) ([]string, error) {
	cfg = cfg.withDefaults()
	path := filepath.Join(cfg.ModuleDir, cfg.PolicyPath)
	data, err := compilediag.ReadBaselineRaw(path)
	if err != nil {
		return nil, err
	}
	out, err := compilediag.Build(cfg.ModuleDir, cfg.GcflagsScope, compilediag.InlineFlags, cfg.Patterns...)
	if err != nil {
		return nil, err
	}
	decisions := parseDecisions(out)

	var changed []string
	lines := strings.Split(data, "\n")
	for i, raw := range lines {
		line := strings.TrimSpace(raw)
		if !strings.HasPrefix(line, "inline ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		file, name, ok := splitEntry(fields[1])
		if !ok {
			continue
		}
		maxCost, found := 0, false
		for _, d := range decisions[file] {
			if nameMatches(d.name, name) && d.canInline {
				found = true
				if d.cost > maxCost {
					maxCost = d.cost
				}
			}
		}
		if !found {
			continue // leave as-is; Check will flag lost-inline
		}
		newLine := line
		replaced := false
		for j, f := range fields {
			if strings.HasPrefix(f, "cost=") {
				fields[j] = fmt.Sprintf("cost=%d", maxCost)
				replaced = true
			}
		}
		if !replaced {
			fields = append(fields, fmt.Sprintf("cost=%d", maxCost))
		}
		newLine = strings.Join(fields, " ")
		if newLine != line {
			changed = append(changed, fmt.Sprintf("%s:%s: %s", file, name, newLine))
		}
		lines[i] = newLine
	}
	if err := compilediag.WriteRaw(path, strings.Join(lines, "\n")); err != nil {
		return nil, err
	}
	return changed, nil
}
