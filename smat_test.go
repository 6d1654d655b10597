package smat

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/solve"
)

func diagEntries(n int) []Entry[float64] {
	var es []Entry[float64]
	for i := 0; i < n; i++ {
		es = append(es, Entry[float64]{Row: i, Col: i, Val: 2})
		if i > 0 {
			es = append(es, Entry[float64]{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			es = append(es, Entry[float64]{Row: i, Col: i + 1, Val: -1})
		}
	}
	return es
}

func TestFromEntriesAndDims(t *testing.T) {
	a, err := FromEntries(100, 100, diagEntries(100))
	if err != nil {
		t.Fatal(err)
	}
	r, c := a.Dims()
	if r != 100 || c != 100 || a.NNZ() != 298 {
		t.Fatalf("dims %dx%d nnz %d", r, c, a.NNZ())
	}
}

func TestNewCSRValidates(t *testing.T) {
	if _, err := NewCSR(2, 2, []int{0, 1, 2}, []int{0, 5}, []float64{1, 2}); err == nil {
		t.Error("NewCSR accepted out-of-range column")
	}
	a, err := NewCSR(2, 2, []int{0, 1, 2}, []int{0, 1}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 2 {
		t.Error("wrong NNZ")
	}
}

func TestHeuristicModelRouting(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	cases := []struct {
		name string
		m    *matrix.CSR[float64]
		want Format
	}{
		{"tridiagonal", gen.MultiDiagonal[float64](3000, []int{-1, 0, 1}, rand.New(rand.NewSource(1))), FormatDIA},
		{"constant-degree", gen.ConstantDegree[float64](3000, 4, rand.New(rand.NewSource(2))), FormatELL},
		{"power-law", gen.PreferentialAttachment[float64](4000, 3, rand.New(rand.NewSource(3))), FormatCOO},
		{"irregular", gen.RandomUniform[float64](3000, 3000, 8, rand.New(rand.NewSource(4))), FormatCSR},
	}
	for _, tc := range cases {
		a := &Matrix[float64]{csr: tc.m}
		op, err := tuner.Tune(a)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := op.Decision()
		if !d.PredictedOK {
			t.Errorf("%s: heuristic model did not predict (fallback=%v chosen=%v)",
				tc.name, d.UsedFallback, d.Chosen)
			continue
		}
		if d.Predicted != tc.want {
			t.Errorf("%s: predicted %v, want %v", tc.name, d.Predicted, tc.want)
		}
	}
}

func TestCSRSpMVCorrectnessProperty(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(50), 1+rng.Intn(50)
		var es []Entry[float64]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < 0.2 {
					es = append(es, Entry[float64]{Row: r, Col: c, Val: rng.NormFloat64()})
				}
			}
		}
		a, err := FromEntries(rows, cols, es)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, rows)
		if err := tuner.CSRSpMV(a, x, y); err != nil {
			t.Logf("CSRSpMV: %v", err)
			return false
		}
		want := make([]float64, rows)
		a.CSR().ToDense().MulVec(x, want)
		return matrix.VecApproxEqual(y, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRSpMVDimensionChecks(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	a, err := FromEntries(3, 4, []Entry[float64]{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.CSRSpMV(a, make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("short x accepted")
	}
	if err := tuner.CSRSpMV(a, make([]float64, 4), make([]float64, 2)); err == nil {
		t.Error("short y accepted")
	}
}

func TestCSRSpMVCachesTuning(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	a, err := FromEntries(500, 500, diagEntries(500))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 500)
	y := make([]float64, 500)
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatal(err)
	}
	if a.Operator() == nil {
		t.Fatal("no operator cached on the handle")
	}
	// Run past a deferred conversion, if the tune deferred one: the handle's
	// operator changes there, once.
	for n := 1; n < a.Operator().Decision().ConvertAt; n++ {
		if err := tuner.CSRSpMV(a, x, y); err != nil {
			t.Fatal(err)
		}
	}
	op1 := a.Operator()
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatal(err)
	}
	if st := tuner.Stats(); a.Operator() != op1 || st.Hits+st.Misses != 1 {
		t.Errorf("tuning not cached across calls: %d cache lookups", st.Hits+st.Misses)
	}
	// A different tuner must re-tune (atomically replacing the operator).
	tuner2 := NewTuner[float64](HeuristicModel(), WithThreads(1))
	if err := tuner2.CSRSpMV(a, x, y); err != nil {
		t.Fatal(err)
	}
	if a.Operator() == op1 {
		t.Error("handle operator not replaced for new tuner")
	}
}

func TestReadMatrixMarket(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3\n2 2 4\n"
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 2 {
		t.Errorf("nnz = %d", a.NNZ())
	}
	if _, err := ReadMatrixMarket(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestModelSaveLoadViaPublicAPI(t *testing.T) {
	m := HeuristicModel()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.ConfidenceThreshold != m.ConfidenceThreshold || len(back.Classes[0].Ruleset.Rules) != len(m.Classes[0].Ruleset.Rules) {
		t.Error("round trip changed model")
	}
}

func TestMatrixFeatures(t *testing.T) {
	a, err := FromEntries(100, 100, diagEntries(100))
	if err != nil {
		t.Fatal(err)
	}
	f := a.Features()
	if f.Ndiags != 3 || f.NTdiagsRatio != 1.0 {
		t.Errorf("features = %+v, want 3 full diagonals", f)
	}
}

func TestFloat32PublicAPI(t *testing.T) {
	tuner := NewTuner[float32](HeuristicModel(), WithThreads(2))
	var es []Entry[float32]
	for i := 0; i < 100; i++ {
		es = append(es, Entry[float32]{Row: i, Col: i, Val: 2})
	}
	a, err := FromEntries(100, 100, es)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 100)
	for i := range x {
		x[i] = float32(i)
	}
	y := make([]float32, 100)
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != 2*float32(i) {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], 2*float32(i))
		}
	}
}

// TestOperatorLendsPoolToSolvers: the public Operator implements
// solve.Pooled, so a CG solve through it dispatches its vector phases — not
// just its products — on the tuner's workers, and repeats bit for bit.
func TestOperatorLendsPoolToSolvers(t *testing.T) {
	var _ solve.Pooled = (*Operator[float64])(nil)
	m := gen.Laplacian2D5pt[float64](100, 100) // 10000 unknowns: above the serial cutoff
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	defer tuner.Close()
	a, err := NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err != nil {
		t.Fatal(err)
	}
	op, err := tuner.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, m.Rows)
	for i := range b {
		b[i] = 1 + float64(i%5)/8
	}
	x, again := make([]float64, m.Rows), make([]float64, m.Rows)
	before := tuner.Stats().Pool.Pooled
	st, err := solve.CG[float64](op, nil, b, x, 1e-8, 2000)
	if err != nil || !st.Converged {
		t.Fatalf("CG: stats %+v err %v", st, err)
	}
	if got := tuner.Stats().Pool.Pooled - before; op.Threads() > 1 && got < 4*uint64(st.Iterations) {
		t.Errorf("%d pooled dispatches in %d iterations, want the product and three vector phases of each", got, st.Iterations)
	}
	if st2, err := solve.CG[float64](op, nil, b, again, 1e-8, 2000); err != nil || st2 != st || !slices.Equal(again, x) {
		t.Errorf("second solve differs: %+v then %+v (err %v)", st, st2, err)
	}
}
