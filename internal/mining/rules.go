package mining

import (
	"fmt"
	"strings"
)

// Op is a condition comparison operator.
type Op byte

const (
	// OpLE tests attr ≤ threshold.
	OpLE Op = iota
	// OpGT tests attr > threshold.
	OpGT
)

// Condition is one comparison in a rule's antecedent.
type Condition struct {
	Attr      int     `json:"attr"`
	Op        Op      `json:"op"`
	Threshold float64 `json:"threshold"`
}

// Matches reports whether the attribute vector satisfies the condition.
func (c Condition) Matches(attrs []float64) bool {
	if c.Op == OpLE {
		return attrs[c.Attr] <= c.Threshold
	}
	return attrs[c.Attr] > c.Threshold
}

// Rule is one IF-THEN classification rule with its training-set statistics.
// Confidence is the Laplace-corrected accuracy (correct+1)/(covered+2), the
// paper's per-rule confidence factor in [0, 1].
type Rule struct {
	Conds      []Condition `json:"conds"`
	Class      int         `json:"class"`
	Covered    int         `json:"covered"`
	Correct    int         `json:"correct"`
	Confidence float64     `json:"confidence"`
}

// Matches reports whether all conditions hold for the attribute vector.
func (r *Rule) Matches(attrs []float64) bool {
	for _, c := range r.Conds {
		if !c.Matches(attrs) {
			return false
		}
	}
	return true
}

// Ruleset is an ordered rule list with a default class, the learning model
// SMAT's runtime evaluates. Rules appear in contribution order: rules that
// reduce training error the most come first (Section 6 "Rule Tailoring and
// Grouping").
type Ruleset struct {
	AttrNames  []string `json:"attr_names"`
	ClassNames []string `json:"class_names"`
	Rules      []Rule   `json:"rules"`
	Default    int      `json:"default"`
}

// RulesFromTree converts every root-to-leaf path of the tree into a rule,
// simplifies redundant conditions, computes per-rule confidence on the
// training set, and orders rules by estimated contribution.
func RulesFromTree(t *Tree, ds *Dataset) *Ruleset {
	rs := &Ruleset{
		AttrNames:  append([]string(nil), t.AttrNames...),
		ClassNames: append([]string(nil), t.ClassNames...),
	}
	counts := make([]int, len(t.ClassNames))
	for _, ex := range ds.Examples {
		counts[ex.Label]++
	}
	rs.Default, _ = majority(counts)

	var walk func(n *node, conds []Condition)
	walk = func(n *node, conds []Condition) {
		if n.isLeaf() {
			r := Rule{Conds: simplify(conds), Class: n.class}
			scoreRule(&r, ds)
			rs.Rules = append(rs.Rules, r)
			return
		}
		walk(n.left, append(conds, Condition{Attr: n.attr, Op: OpLE, Threshold: n.threshold}))
		walk(n.right, append(conds[:len(conds):len(conds)],
			Condition{Attr: n.attr, Op: OpGT, Threshold: n.threshold}))
	}
	walk(t.root, nil)
	rs.orderByContribution(ds)
	return rs
}

// simplify keeps only the tightest condition per (attribute, operator) pair.
func simplify(conds []Condition) []Condition {
	type key struct {
		attr int
		op   Op
	}
	tight := map[key]float64{}
	order := []key{}
	for _, c := range conds {
		k := key{c.Attr, c.Op}
		cur, seen := tight[k]
		if !seen {
			tight[k] = c.Threshold
			order = append(order, k)
			continue
		}
		if (c.Op == OpLE && c.Threshold < cur) || (c.Op == OpGT && c.Threshold > cur) {
			tight[k] = c.Threshold
		}
	}
	out := make([]Condition, 0, len(order))
	for _, k := range order {
		out = append(out, Condition{Attr: k.attr, Op: k.op, Threshold: tight[k]})
	}
	return out
}

// scoreRule fills coverage, correctness and Laplace confidence from the
// training set.
func scoreRule(r *Rule, ds *Dataset) {
	for _, ex := range ds.Examples {
		if r.Matches(ex.Attrs) {
			r.Covered++
			if ex.Label == r.Class {
				r.Correct++
			}
		}
	}
	r.Confidence = float64(r.Correct+1) / float64(r.Covered+2)
}

// orderByContribution greedily orders rules so that each position holds the
// rule with the largest net benefit (correct − incorrect) on the examples no
// earlier rule covers — the paper's "rules reducing error rate the most
// appear first".
func (rs *Ruleset) orderByContribution(ds *Dataset) {
	remaining := make([]int, 0, len(ds.Examples))
	for i := range ds.Examples {
		remaining = append(remaining, i)
	}
	unused := make([]Rule, len(rs.Rules))
	copy(unused, rs.Rules)
	var ordered []Rule
	for len(unused) > 0 && len(remaining) > 0 {
		bestIdx, bestScore := -1, 0
		var bestCov []bool
		for ri := range unused {
			score := 0
			cov := make([]bool, len(remaining))
			for pos, ei := range remaining {
				ex := ds.Examples[ei]
				if unused[ri].Matches(ex.Attrs) {
					cov[pos] = true
					if ex.Label == unused[ri].Class {
						score++
					} else {
						score--
					}
				}
			}
			if bestIdx == -1 || score > bestScore {
				bestIdx, bestScore, bestCov = ri, score, cov
			}
		}
		ordered = append(ordered, unused[bestIdx])
		unused = append(unused[:bestIdx], unused[bestIdx+1:]...)
		var next []int
		for pos, ei := range remaining {
			if !bestCov[pos] {
				next = append(next, ei)
			}
		}
		remaining = next
	}
	// Any rules left cover nothing new; keep them at the tail in original
	// order so prediction semantics are preserved.
	rs.Rules = append(ordered, unused...)
}

// Match returns the first rule in order matching the attribute vector.
func (rs *Ruleset) Match(attrs []float64) (*Rule, bool) {
	for i := range rs.Rules {
		if rs.Rules[i].Matches(attrs) {
			return &rs.Rules[i], true
		}
	}
	return nil, false
}

// Predict returns the class of the first matching rule, or the default
// class when nothing matches.
func (rs *Ruleset) Predict(attrs []float64) int {
	if r, ok := rs.Match(attrs); ok {
		return r.Class
	}
	return rs.Default
}

// Accuracy returns the fraction of examples the ruleset classifies
// correctly.
func (rs *Ruleset) Accuracy(ds *Dataset) float64 {
	if len(ds.Examples) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range ds.Examples {
		if rs.Predict(ex.Attrs) == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.Examples))
}

// Tailor truncates the ordered ruleset to the shortest prefix whose training
// accuracy is within maxAccuracyLoss of the full ruleset (the paper tailors
// 40 rules down to 15 within a 1% accuracy gap). It returns the tailored
// copy; the receiver is unchanged.
func (rs *Ruleset) Tailor(ds *Dataset, maxAccuracyLoss float64) *Ruleset {
	full := rs.Accuracy(ds)
	for k := 1; k <= len(rs.Rules); k++ {
		sub := rs.prefix(k)
		if sub.Accuracy(ds) >= full-maxAccuracyLoss {
			return sub
		}
	}
	return rs.prefix(len(rs.Rules))
}

func (rs *Ruleset) prefix(k int) *Ruleset {
	return &Ruleset{
		AttrNames:  rs.AttrNames,
		ClassNames: rs.ClassNames,
		Rules:      append([]Rule(nil), rs.Rules[:k]...),
		Default:    rs.Default,
	}
}

// String renders the ruleset as IF-THEN sentences.
func (rs *Ruleset) String() string {
	var b strings.Builder
	for i, r := range rs.Rules {
		fmt.Fprintf(&b, "Rule %d: IF ", i+1)
		if len(r.Conds) == 0 {
			b.WriteString("true")
		}
		for j, c := range r.Conds {
			if j > 0 {
				b.WriteString(" AND ")
			}
			op := "<="
			if c.Op == OpGT {
				op = ">"
			}
			fmt.Fprintf(&b, "%s %s %.4g", rs.AttrNames[c.Attr], op, c.Threshold)
		}
		fmt.Fprintf(&b, " THEN %s  [conf %.2f, %d/%d]\n",
			rs.ClassNames[r.Class], r.Confidence, r.Correct, r.Covered)
	}
	fmt.Fprintf(&b, "Default: %s\n", rs.ClassNames[rs.Default])
	return b.String()
}
