package autotune

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

var fastMeasure = MeasureOptions{MinTime: 100 * time.Microsecond, Trials: 1}

// TestMeasureSecPerOpCountsCalibration counts invocations. A calibration run
// that meets MinTime on its own is the first of N ≥ 2 trials, so they are N
// runs; before a single trial it stays a warm-up, and one that falls short of
// MinTime is a warm-up followed by N trials of the same repetition count.
func TestMeasureSecPerOpCountsCalibration(t *testing.T) {
	for _, c := range []struct{ trials, calls int }{{1, 2}, {2, 2}, {3, 3}} {
		// Each call spans at least one clock tick, the smallest MinTime.
		calls := 0
		got := timeTrials(func() {
			calls++
			for start := time.Now(); time.Since(start) <= 0; {
			}
		}, MeasureOptions{MinTime: 1, Trials: c.trials})
		if calls != c.calls || len(got) != c.trials {
			t.Errorf("%d trials of a long-enough op: %d calls, %d results; want %d calls", c.trials, calls, len(got), c.calls)
		}

		// A call far shorter than MinTime is repeated: 1 + trials·reps calls.
		calls = 0
		got = timeTrials(func() { calls++ }, MeasureOptions{MinTime: 20 * time.Millisecond, Trials: c.trials})
		if reps := (calls - 1) / c.trials; len(got) != c.trials || (calls-1)%c.trials != 0 || reps < 2 {
			t.Errorf("%d trials of a short op: %d calls, %d results; want 1 + %d·reps calls with reps ≥ 2", c.trials, calls, len(got), c.trials)
		}
	}
}

func TestMeasureSecPerOp(t *testing.T) {
	n := 0
	sec := MeasureSecPerOp(func() {
		for i := 0; i < 10000; i++ {
			n += i
		}
	}, fastMeasure)
	if sec <= 0 {
		t.Fatalf("sec = %g, want > 0", sec)
	}
	if sec > 0.01 {
		t.Errorf("trivial op measured at %gs", sec)
	}
	_ = n
}

func TestGFLOPS(t *testing.T) {
	if g := GFLOPS(2e9, 1.0); g != 2.0 {
		t.Errorf("GFLOPS = %g, want 2", g)
	}
	if g := GFLOPS(100, 0); g != 0 {
		t.Errorf("GFLOPS with zero time = %g, want 0", g)
	}
}

func TestSearchKernelsCoversAllFormats(t *testing.T) {
	choice, results := SearchKernels(SearchConfig{
		Threads:    2,
		ProbeScale: 0.05,
		Measure:    fastMeasure,
		Seed:       1,
	})
	lib := kernels.NewLibrary[float64]()
	if len(choice) != 4 {
		t.Fatalf("choice covers %d formats, want 4", len(choice))
	}
	for _, f := range matrix.Formats {
		name, ok := choice[f]
		if !ok {
			t.Fatalf("no kernel chosen for %v", f)
		}
		k := lib.Lookup(name)
		if k == nil {
			t.Fatalf("chosen kernel %q not registered", name)
		}
		if k.Format != f {
			t.Errorf("kernel %q has format %v, chosen for %v", name, k.Format, f)
		}
	}
	for _, r := range results {
		// The performance table covers the fixed menu; parameterized
		// instances share strategy bitmasks and are scored by the parameter
		// walk instead.
		fixed := 0
		for _, k := range lib.ForFormat(r.Format) {
			if k.Params.IsZero() {
				fixed++
			}
		}
		if len(r.Table) != fixed {
			t.Errorf("%v performance table has %d rows, want %d",
				r.Format, len(r.Table), fixed)
		}
		for _, row := range r.Table {
			if row.GFLOPS <= 0 {
				t.Errorf("%v kernel %s measured %g GFLOPS", r.Format, row.Kernel, row.GFLOPS)
			}
		}
		if _, ok := r.KernelScores[r.Best]; !ok {
			t.Errorf("%v best kernel %q missing from scores", r.Format, r.Best)
		}
	}
}

// TestSearchedClassBindsPartitionedKernels: with the kernel search on, a
// two-thread class binds a partitioned instance for every format — the
// scoreboard ranks the whole menu, a class binds from the partitioned part —
// and the model names what its labels were timed with.
func TestSearchedClassBindsPartitionedKernels(t *testing.T) {
	res, err := Train(tinyTrainingSet()[:12], TrainConfig{
		Threads:    []int{2},
		Measure:    fastMeasure,
		ProbeScale: 0.05,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	class := res.Model.Classes[0]
	if len(res.Classes[0].Search) == 0 {
		t.Fatal("the kernel search did not run")
	}
	for f, k := range resolveKernels(&class, kernels.NewLibrary[float64]()) {
		if k.Strategies&kernels.StratParallel == 0 || class.Kernels[f.String()] != k.Name {
			t.Errorf("%v: class names %q, binds %s (%v); want a partitioned kernel it names", f, class.Kernels[f.String()], k.Name, k.Strategies)
		}
	}
	for _, lbl := range res.Classes[0].Labels {
		for f, name := range lbl.Kernels {
			if name != class.Kernels[f.String()] {
				t.Errorf("%v labeled with %s, the class binds %s", f, name, class.Kernels[f.String()])
			}
		}
	}
}

func TestLabelerMeasuresFeasibleFormats(t *testing.T) {
	l := NewLabeler(nil, 2, fastMeasure)
	// A banded matrix: all four formats feasible.
	m := gen.MultiDiagonal[float64](2000, []int{-1, 0, 1}, rand.New(rand.NewSource(1)))
	lbl := l.Label(m)
	if len(lbl.GFLOPS) != 4 {
		t.Errorf("banded matrix measured %d formats, want 4", len(lbl.GFLOPS))
	}
	best := lbl.GFLOPS[lbl.Best]
	for f, g := range lbl.GFLOPS {
		if g > best {
			t.Errorf("format %v (%g) beats reported best %v (%g)", f, g, lbl.Best, best)
		}
	}
}

func TestLabelerSkipsInfeasibleFormats(t *testing.T) {
	// Anti-diagonal-ish matrix: DIA fill explodes; one dense row blows ELL.
	n := 3000
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: n - 1 - i, Val: 1})
	}
	for c := 0; c < n; c += 2 {
		ts = append(ts, matrix.Triple[float64]{Row: 0, Col: c, Val: 1})
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLabeler(nil, 2, fastMeasure)
	lbl := l.Label(m)
	if _, ok := lbl.GFLOPS[matrix.FormatDIA]; ok {
		t.Error("DIA measured despite fill explosion")
	}
	if _, ok := lbl.GFLOPS[matrix.FormatELL]; ok {
		t.Error("ELL measured despite fill explosion")
	}
	if _, ok := lbl.GFLOPS[matrix.FormatCSR]; !ok {
		t.Error("CSR not measured")
	}
}

// tinyTrainingSet returns a small mixed corpus slice for fast train tests.
func tinyTrainingSet() []*corpus.Entry {
	c := corpus.New(0.02, 1234)
	return c.Sample(60) // ~40 entries across all domains
}

func TestTrainProducesWorkingModel(t *testing.T) {
	res, err := Train(tinyTrainingSet(), TrainConfig{
		Threads:          []int{2},
		Measure:          fastMeasure,
		SkipKernelSearch: true,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Model == nil || res.Model.Classes[0].Ruleset == nil {
		t.Fatal("no model produced")
	}
	if len(res.Model.Classes[0].Ruleset.Rules) == 0 {
		t.Fatal("empty ruleset")
	}
	cl := res.Classes[0]
	if cl.TailoredRules > cl.FullRules {
		t.Errorf("tailored %d > full %d rules", cl.TailoredRules, cl.FullRules)
	}
	if cl.TrainAccuracy < 0.5 {
		t.Errorf("training accuracy %g, want ≥0.5", cl.TrainAccuracy)
	}
	if len(cl.Labels) != len(cl.Dataset.Examples) {
		t.Error("labels/examples length mismatch")
	}
}

func TestTrainRejectsEmptySet(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("Train accepted empty set")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	res, err := Train(tinyTrainingSet(), TrainConfig{
		Threads:          []int{2},
		Measure:          fastMeasure,
		SkipKernelSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Classes[0].Threads != res.Model.Classes[0].Threads || len(back.Classes) != len(res.Model.Classes) ||
		back.ConfidenceThreshold != res.Model.ConfidenceThreshold ||
		len(back.Classes[0].Ruleset.Rules) != len(res.Model.Classes[0].Ruleset.Rules) {
		t.Error("round trip changed model")
	}
}

func TestLoadModelRejectsCorrupt(t *testing.T) {
	cases := []string{
		"not json",
		`{"version":2}`,
		`{"version":2,"confidence_threshold":0.9,"classes":[{"threads":1,"ruleset":{"class_names":["A"],"attr_names":[],"rules":[],"default":0}}]}`,
		`{"version":2,"confidence_threshold":7,"classes":[{"threads":1,"ruleset":{"class_names":["CSR","COO","DIA","ELL"],"attr_names":[],"rules":[],"default":0}}]}`,
		// A schema-1 model: one flat ruleset, no classes.
		`{"version":1,"threads":1,"confidence_threshold":0.9,"ruleset":{"class_names":["CSR","COO","DIA","ELL"],"attr_names":[],"rules":[],"default":0}}`,
	}
	for i, c := range cases {
		if _, err := LoadModel(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt model accepted", i)
		}
	}
}

// modelAlways builds a hand-made model with a single always-matching rule.
func modelAlways(f matrix.Format, conf float64) *Model {
	return modelRules(mining.Rule{Class: int(f), Confidence: conf})
}

// modelRules builds a hand-made model around the given rules; with none, no
// rule group ever matches.
func modelRules(rules ...mining.Rule) *Model {
	return NewModel(0.85, DefaultMaxFill, ModelClass{
		Threads: 2,
		Kernels: map[string]string{},
		Ruleset: &mining.Ruleset{
			AttrNames:  features.AttributeNames,
			ClassNames: classNames(),
			Rules:      rules,
			Default:    int(matrix.FormatCSR),
		},
	})
}

func TestTunerConfidentPredictionPath(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	m := gen.MultiDiagonal[float64](1000, []int{-1, 0, 1}, rand.New(rand.NewSource(2)))
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.UsedFallback {
		t.Error("confident prediction used fallback")
	}
	if !d.PredictedOK || d.Predicted != matrix.FormatDIA || d.Chosen != matrix.FormatDIA {
		t.Errorf("decision = %+v, want confident DIA", d)
	}
	if op.Format() != matrix.FormatDIA {
		t.Errorf("operator format = %v, want DIA", op.Format())
	}
	// Result correctness.
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%3) + 1
	}
	got := make([]float64, m.Rows)
	want := make([]float64, m.Rows)
	op.MulVec(x, got)
	m.ToDense().MulVec(x, want)
	if !matrix.VecApproxEqual(got, want, 1e-9) {
		t.Error("tuned operator produced wrong result")
	}
	// A confident prediction runs no kernel: there is no baseline to divide by.
	if d.CSRSpMVSec != 0 || d.Overhead() != 0 || d.TuneSec() <= 0 {
		t.Errorf("baseline %gs, overhead %g over %gs of tuning; want an unmeasured baseline", d.CSRSpMVSec, d.Overhead(), d.TuneSec())
	}
}

func TestTunerLowConfidenceFallsBack(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.30), Config{Threads: 2})
	m := gen.RandomUniform[float64](2000, 2000, 5, rand.New(rand.NewSource(3)))
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.UsedFallback {
		t.Fatal("low confidence did not trigger fallback")
	}
	if len(d.Measured) == 0 {
		t.Fatal("fallback measured nothing")
	}
	// The winner is the fastest contender, or the incumbent when nothing beat
	// it by the margin.
	csrG, bestG := d.Measured[matrix.FormatCSR], d.Measured[d.Chosen]
	for f, g := range d.Measured {
		if g > bestG && (d.Chosen != matrix.FormatCSR || g > csrG*(1+fallbackMargin)) {
			t.Errorf("fallback chose %v (%g) over faster %v (%g)", d.Chosen, bestG, f, g)
		}
	}
	if d.Chosen != matrix.FormatCSR && bestG <= csrG*(1+fallbackMargin) {
		t.Errorf("fallback left CSR (%g) for %v (%g) inside the margin", csrG, d.Chosen, bestG)
	}
	if op == nil || op.NNZ() != m.NNZ() {
		t.Error("fallback operator malformed")
	}
	// The fallback spends the CSR baseline, so it reports its overhead.
	if d.Overhead() <= 0 {
		t.Errorf("overhead = %g, want > 0", d.Overhead())
	}
}

func TestTunerInfeasiblePredictionFallsBack(t *testing.T) {
	// The model insists on DIA with high confidence, but the matrix is
	// anti-diagonal dominated: the feasibility check must veto DIA and the
	// fallback must run.
	n := 2000
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: n - 1 - i, Val: 1})
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: (i*7 + 3) % n, Val: 1})
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if !d.UsedFallback {
		t.Error("infeasible DIA prediction was not vetoed")
	}
	if d.Chosen == matrix.FormatDIA {
		t.Error("fallback chose infeasible DIA")
	}
	if op == nil {
		t.Fatal("no operator")
	}
}

func TestTunerGroupOrderPrefersDIA(t *testing.T) {
	// Two always-matching confident rules: DIA and CSR. The DIA group is
	// checked first (the paper's ordering), so DIA must win.
	model := modelAlways(matrix.FormatCSR, 0.99)
	model.Classes[0].Ruleset.Rules = append(model.Classes[0].Ruleset.Rules,
		mining.Rule{Class: int(matrix.FormatDIA), Confidence: 0.95})
	tuner := New[float64](model, Config{Threads: 2})
	m := gen.MultiDiagonal[float64](500, []int{0, 2}, rand.New(rand.NewSource(4)))
	_, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen != matrix.FormatDIA {
		t.Errorf("chosen = %v, want DIA (group order)", d.Chosen)
	}
}

func TestTunerFloat32(t *testing.T) {
	tuner := New[float32](modelAlways(matrix.FormatELL, 0.99), Config{Threads: 2})
	rng := rand.New(rand.NewSource(5))
	m64 := gen.ConstantDegree[float64](800, 4, rng)
	// Rebuild as float32.
	var ts []matrix.Triple[float32]
	for r := 0; r < m64.Rows; r++ {
		for jj := m64.RowPtr[r]; jj < m64.RowPtr[r+1]; jj++ {
			ts = append(ts, matrix.Triple[float32]{Row: r, Col: m64.ColIdx[jj], Val: float32(m64.Vals[jj])})
		}
	}
	m, err := matrix.FromTriples(800, 800, ts)
	if err != nil {
		t.Fatal(err)
	}
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if d.Chosen != matrix.FormatELL {
		t.Errorf("chosen = %v, want ELL", d.Chosen)
	}
	x := make([]float32, 800)
	for i := range x {
		x[i] = 1
	}
	y := make([]float32, 800)
	op.MulVec(x, y)
	want := make([]float32, 800)
	m.ToDense().MulVec(x, want)
	if !matrix.VecApproxEqual(y, want, 1e-4) {
		t.Error("float32 operator wrong result")
	}
}

func TestEndToEndTrainedTunerPicksDIAForStencil(t *testing.T) {
	// Train on the tiny corpus, then check the learned model sends an
	// unmistakably diagonal matrix down a sensible path (DIA predicted, or a
	// fallback that measures DIA among the candidates).
	res, err := Train(tinyTrainingSet(), TrainConfig{
		Threads:          []int{2},
		Measure:          fastMeasure,
		SkipKernelSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuner := New[float64](res.Model, Config{Threads: 2})
	m := gen.Laplacian2D5pt[float64](120, 120)
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if op == nil {
		t.Fatal("no operator")
	}
	// Whatever the decision, the operator must be correct.
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i % 7)
	}
	got := make([]float64, m.Rows)
	op.MulVec(x, got)
	want := make([]float64, m.Rows)
	mat, _ := kernels.Convert(m, matrix.FormatCSR, 0)
	kernels.NewLibrary[float64]().Basic(matrix.FormatCSR).Run(mat, x, want, 1)
	if !matrix.VecApproxEqual(got, want, 1e-9) {
		t.Error("trained tuner produced wrong result")
	}
	t.Logf("stencil decision: chosen=%v predicted=%v fallback=%v conf=%.2f",
		d.Chosen, d.Predicted, d.UsedFallback, d.Confidence)
}

func TestTunerEmptyMatrix(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 1})
	m, err := matrix.FromTriples[float64](10, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if op == nil {
		t.Fatal("no operator for empty matrix")
	}
	x := make([]float64, 10)
	y := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	op.MulVec(x, y)
	for i, v := range y {
		if v != 0 {
			t.Fatalf("y[%d] = %g on empty matrix", i, v)
		}
	}
	_ = d
}

func TestTunerOneByOne(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	m, err := matrix.FromTriples(1, 1, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, 1)
	op.MulVec([]float64{2}, y)
	if y[0] != 6 {
		t.Fatalf("y = %g, want 6", y[0])
	}
}

func TestDecisionOverheadZeroBaseline(t *testing.T) {
	d := &Decision{FeatureSec: 1}
	if d.Overhead() != 0 {
		t.Error("overhead with zero baseline should be 0")
	}
}

func TestOperatorDims(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCOO, 0.99), Config{Threads: 1})
	m, err := matrix.FromTriples(3, 7, []matrix.Triple[float64]{{Row: 1, Col: 2, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	r, c := op.Dims()
	if r != 3 || c != 7 || op.NNZ() != 1 {
		t.Errorf("Dims %dx%d NNZ %d", r, c, op.NNZ())
	}
}
