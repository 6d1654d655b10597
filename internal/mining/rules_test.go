package mining

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func buildRuleset(t *testing.T, ds *Dataset) *Ruleset {
	t.Helper()
	tree, err := BuildTree(ds, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return RulesFromTree(tree, ds)
}

func TestRulesetCoversAllInputs(t *testing.T) {
	// Tree leaves partition the input space, so some rule must match every
	// example even after contribution reordering.
	ds := thresholdDataset(500, 0.05, 10)
	rs := buildRuleset(t, ds)
	for i, ex := range ds.Examples {
		if _, ok := rs.Match(ex.Attrs); !ok {
			t.Fatalf("example %d matched no rule", i)
		}
	}
}

func TestRulesetAccuracyTracksTree(t *testing.T) {
	ds := thresholdDataset(800, 0.05, 11)
	tree, err := BuildTree(ds, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rs := RulesFromTree(tree, ds)
	ta, ra := tree.Accuracy(ds), rs.Accuracy(ds)
	if ra < ta-0.02 {
		t.Errorf("ruleset accuracy %g much below tree accuracy %g", ra, ta)
	}
}

func TestRuleConfidenceBounds(t *testing.T) {
	ds := thresholdDataset(600, 0.1, 12)
	rs := buildRuleset(t, ds)
	if len(rs.Rules) == 0 {
		t.Fatal("no rules extracted")
	}
	for i, r := range rs.Rules {
		if r.Confidence < 0 || r.Confidence > 1 {
			t.Errorf("rule %d confidence %g outside [0,1]", i, r.Confidence)
		}
		if r.Correct > r.Covered {
			t.Errorf("rule %d correct %d > covered %d", i, r.Correct, r.Covered)
		}
		// Laplace correction.
		want := float64(r.Correct+1) / float64(r.Covered+2)
		if r.Confidence != want {
			t.Errorf("rule %d confidence %g, want Laplace %g", i, r.Confidence, want)
		}
	}
}

func TestContributionOrdering(t *testing.T) {
	// The first rule must have the largest net benefit on the full set
	// (that is how the greedy ordering starts).
	ds := thresholdDataset(600, 0.05, 13)
	rs := buildRuleset(t, ds)
	best := -1 << 30
	for _, r := range rs.Rules {
		net := r.Correct - (r.Covered - r.Correct)
		if net > best {
			best = net
		}
	}
	first := rs.Rules[0]
	firstNet := first.Correct - (first.Covered - first.Correct)
	if firstNet != best {
		t.Errorf("first rule net benefit %d, best available %d", firstNet, best)
	}
}

func TestTailorKeepsAccuracy(t *testing.T) {
	ds := thresholdDataset(900, 0.1, 14)
	rs := buildRuleset(t, ds)
	tailored := rs.Tailor(ds, 0.01)
	if len(tailored.Rules) > len(rs.Rules) {
		t.Fatal("tailored ruleset grew")
	}
	if tailored.Accuracy(ds) < rs.Accuracy(ds)-0.01 {
		t.Errorf("tailored accuracy %g lost more than 1%% vs %g",
			tailored.Accuracy(ds), rs.Accuracy(ds))
	}
	// The original must be unchanged.
	if len(rs.Rules) == len(tailored.Rules) {
		t.Logf("tailoring kept all %d rules (acceptable: every rule contributes)", len(rs.Rules))
	}
}

func TestSimplifyMergesConditions(t *testing.T) {
	conds := []Condition{
		{Attr: 0, Op: OpLE, Threshold: 5},
		{Attr: 0, Op: OpLE, Threshold: 3}, // tighter, should win
		{Attr: 0, Op: OpGT, Threshold: 1},
		{Attr: 0, Op: OpGT, Threshold: 2}, // tighter, should win
		{Attr: 1, Op: OpLE, Threshold: 7},
	}
	out := simplify(conds)
	if len(out) != 3 {
		t.Fatalf("simplify kept %d conditions, want 3", len(out))
	}
	byKey := map[[2]int]float64{}
	for _, c := range out {
		byKey[[2]int{c.Attr, int(c.Op)}] = c.Threshold
	}
	if byKey[[2]int{0, int(OpLE)}] != 3 {
		t.Error("kept loose ≤ threshold")
	}
	if byKey[[2]int{0, int(OpGT)}] != 2 {
		t.Error("kept loose > threshold")
	}
}

func TestMatchReturnsFirstInOrder(t *testing.T) {
	rs := &Ruleset{
		AttrNames:  []string{"x"},
		ClassNames: []string{"A", "B"},
		Rules: []Rule{
			{Conds: []Condition{{Attr: 0, Op: OpGT, Threshold: 0.5}}, Class: 0, Confidence: 0.9},
			{Conds: nil, Class: 1, Confidence: 0.5}, // matches everything
		},
		Default: 1,
	}
	r, ok := rs.Match([]float64{0.7})
	if !ok || r.Class != 0 {
		t.Error("first matching rule not returned")
	}
	r, ok = rs.Match([]float64{0.3})
	if !ok || r.Class != 1 {
		t.Error("fallthrough to second rule failed")
	}
}

func TestPredictDefaultWhenNoMatch(t *testing.T) {
	rs := &Ruleset{
		AttrNames:  []string{"x"},
		ClassNames: []string{"A", "B"},
		Rules: []Rule{
			{Conds: []Condition{{Attr: 0, Op: OpGT, Threshold: 10}}, Class: 0},
		},
		Default: 1,
	}
	if got := rs.Predict([]float64{1}); got != 1 {
		t.Errorf("Predict = %d, want default 1", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	ds := thresholdDataset(400, 0.05, 16)
	rs := buildRuleset(t, ds)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(rs); err != nil {
		t.Fatal(err)
	}
	var back Ruleset
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Rules) != len(rs.Rules) || back.Default != rs.Default {
		t.Fatal("round trip changed structure")
	}
	for _, ex := range ds.Examples {
		if back.Predict(ex.Attrs) != rs.Predict(ex.Attrs) {
			t.Fatal("round trip changed predictions")
		}
	}
}

// TestDecodeRejectsCorruptRulesets: decoding and then Validate — how
// autotune.LoadModel reads a class's ruleset — rejects every corrupt input.
func TestDecodeRejectsCorruptRulesets(t *testing.T) {
	cases := []string{
		`not json`,
		`{"class_names":[],"attr_names":[],"rules":[],"default":0}`,
		`{"class_names":["A"],"attr_names":[],"rules":[],"default":5}`,
		`{"class_names":["A"],"attr_names":["x"],"rules":[{"conds":[{"attr":3,"op":0,"threshold":1}],"class":0}],"default":0}`,
		`{"class_names":["A"],"attr_names":["x"],"rules":[{"conds":[],"class":2}],"default":0}`,
		`{"class_names":["A"],"attr_names":["x"],"rules":[{"conds":[],"class":0,"confidence":3}],"default":0}`,
		`{"class_names":["A"],"attr_names":["x"],"rules":[{"conds":[{"attr":0,"op":9,"threshold":1}],"class":0}],"default":0}`,
	}
	for i, c := range cases {
		var rs Ruleset
		if err := json.Unmarshal([]byte(c), &rs); err == nil && rs.Validate() == nil {
			t.Errorf("case %d: corrupt ruleset accepted", i)
		}
	}
}

func TestRulesetString(t *testing.T) {
	ds := thresholdDataset(300, 0, 17)
	rs := buildRuleset(t, ds)
	s := rs.String()
	if !strings.Contains(s, "Rule 1: IF") || !strings.Contains(s, "THEN") {
		t.Errorf("String() = %q lacks IF-THEN structure", s)
	}
	if !strings.Contains(s, "Default:") {
		t.Error("String() lacks default class")
	}
}
