package autotune

import (
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// batchInput packs k distinct integer-valued columns into the interleaved
// layout and returns both forms.
func batchInput(n, k int) (xs [][]float64, xb []float64) {
	xs = make([][]float64, k)
	xb = make([]float64, n*k)
	for j := 0; j < k; j++ {
		xs[j] = make([]float64, n)
		for c := 0; c < n; c++ {
			v := float64(1 + (c+5*j)%9)
			xs[j][c] = v
			xb[c*k+j] = v
		}
	}
	return xs, xb
}

// TestMulVecBatchMatchesColumnwise checks column j of the batched product
// against a single-vector MulVec of input column j, for every format and
// width, on a banded matrix and on one with no entries (whose product zeroes
// yb). Integer values make the comparison exact regardless of summation
// order.
func TestMulVecBatchMatchesColumnwise(t *testing.T) {
	empty, err := matrix.FromTriples[float64](6, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	banded := gen.MultiDiagonal[float64](400, []int{-2, 0, 3}, rand.New(rand.NewSource(11)))
	for _, f := range matrix.Formats {
		tuner := New[float64](modelAlways(f, 0.99), Config{Threads: 2})
		defer tuner.Close()
		for _, m := range []*matrix.CSR[float64]{banded, empty} {
			op, _, err := tuner.Tune(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 3, 4, 5, 8} {
				xs, xb := batchInput(m.Cols, k)
				want := make([][]float64, k)
				for j := 0; j < k; j++ {
					want[j] = make([]float64, m.Rows)
					op.MulVec(xs[j], want[j])
				}
				yb := make([]float64, m.Rows*k)
				for i := range yb {
					yb[i] = 7
				}
				op.MulVecBatch(xb, yb, k)
				for j := 0; j < k; j++ {
					for i := 0; i < m.Rows; i++ {
						if yb[i*k+j] != want[j][i] {
							t.Fatalf("%v %dx%d k=%d: y[%d][col %d] = %g, want %g",
								f, m.Rows, m.Cols, k, i, j, yb[i*k+j], want[j][i])
						}
					}
				}
			}
		}
	}
}

// TestEmptyMatrixCrossoverUnmeasured: with no entries there is nothing to
// time, and nothing is: the tune binds the format's tiled kernel up front, and
// the first batched call at k = 2 runs it and zeroes yb.
func TestEmptyMatrixCrossoverUnmeasured(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m, err := matrix.FromTriples[float64](6, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if b := op.eng.batch; b == nil || b.Format != matrix.FormatCSR {
		t.Fatalf("empty CSR operator bound batch kernel %v, want a CSR one", b)
	}
	yb := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	op.MulVecBatch(make([]float64, 10), yb, 2)
	for i, v := range yb {
		if v != 0 {
			t.Fatalf("yb[%d] = %g, want 0", i, v)
		}
	}
	if d.BatchProbeSec != 0 {
		t.Errorf("BatchProbeSec = %g, want 0", d.BatchProbeSec)
	}
}

// TestMulVecBatchEdgeWidths: k = 0 is a no-op and negative k panics.
func TestMulVecBatchEdgeWidths(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m := gen.RandomUniform[float64](50, 50, 3, rand.New(rand.NewSource(14)))
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	op.MulVecBatch(nil, nil, 0) // must not touch anything

	defer func() {
		if recover() == nil {
			t.Error("negative batch width did not panic")
		}
	}()
	op.MulVecBatch(nil, nil, -1)
}

// TestMulVecBatchShapePanics: mis-sized interleaved buffers must panic with
// the shape message, not read out of range.
func TestMulVecBatchShapePanics(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m := gen.RandomUniform[float64](20, 30, 2, rand.New(rand.NewSource(15)))
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct{ lx, ly int }{
		{30 * 4, 20 * 3}, // yb sized for wrong k
		{30 * 3, 20 * 4}, // xb sized for wrong k
		{30, 20},         // single-vector buffers at k=4
	}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("|xb|=%d |yb|=%d k=4 did not panic", b.lx, b.ly)
				}
			}()
			op.MulVecBatch(make([]float64, b.lx), make([]float64, b.ly), 4)
		}()
	}
}

// TestMulVecBatchZeroAlloc is the serving contract: after one warm-up call
// MulVec and MulVecBatch allocate nothing.
func TestMulVecBatchZeroAlloc(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("allocation accounting is not stable under -race")
	}
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 4})
	defer tuner.Close()
	m := gen.RandomUniform[float64](5000, 5000, 6, rand.New(rand.NewSource(16)))
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	checkSteadyStateZeroAlloc(t, op, m)
}

// TestSwapSteadyStateZeroAlloc: the operator a hinted cache hit past
// break-even converted before returning it allocates nothing in steady state
// either — the conversion must not add serving cost. (The name is the deleted
// background swap's, whose swapped-in engine this test used to check.)
func TestSwapSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("allocation accounting is not stable under -race")
	}
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 4})
	defer tuner.Close()
	m := intDiagonal(5000)
	seedAmortized(tuner, m)
	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit || op.Format() != matrix.FormatDIA {
		t.Fatalf("hinted tune: hit %v serving %v, want a cache hit converted to DIA", d.CacheHit, op.Format())
	}
	checkSteadyStateZeroAlloc(t, op, m)
}

// checkSteadyStateZeroAlloc warms op with one call of each kind and width,
// then fails if a further MulVec or MulVecBatch call allocates.
func checkSteadyStateZeroAlloc(t *testing.T, op *Operator[float64], m *matrix.CSR[float64]) {
	t.Helper()
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)
	op.MulVec(x, y) // warm: plan, workers
	if allocs := testing.AllocsPerRun(20, func() { op.MulVec(x, y) }); allocs != 0 {
		t.Errorf("MulVec: %.1f allocs per steady-state call, want 0", allocs)
	}
	for _, k := range []int{2, 3, 5, 8} {
		_, xb := batchInput(m.Cols, k)
		yb := make([]float64, m.Rows*k)
		op.MulVecBatch(xb, yb, k) // warm: the batch plan
		if allocs := testing.AllocsPerRun(20, func() { op.MulVecBatch(xb, yb, k) }); allocs != 0 {
			t.Errorf("k=%d: %.1f allocs per steady-state call, want 0", k, allocs)
		}
	}
}
