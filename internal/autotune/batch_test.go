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

// TestMulVecBatchMatchesColumnwise drives both MulVecBatch paths — the tiled
// SpMM kernel and the loop-over-vectors fallback — by pinning the crossover
// to each extreme, and checks column j of the batched product against a
// single-vector MulVec of input column j. Integer values make the comparison
// exact regardless of summation order.
func TestMulVecBatchMatchesColumnwise(t *testing.T) {
	for _, f := range matrix.Formats {
		tuner := New[float64](modelAlways(f, 0.99), Config{Threads: 2})
		defer tuner.Close()
		m := gen.MultiDiagonal[float64](400, []int{-2, 0, 3}, rand.New(rand.NewSource(11)))
		op, d, err := tuner.Tune(m)
		if err != nil {
			t.Fatal(err)
		}
		if op.eng.Load().batch == nil {
			t.Fatalf("%v: no batch kernel bound", f)
		}
		if d.BatchCrossover == 0 {
			t.Fatalf("%v: crossover not recorded in decision", f)
		}
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			xs, xb := batchInput(m.Cols, k)
			want := make([][]float64, k)
			for j := 0; j < k; j++ {
				want[j] = make([]float64, m.Rows)
				op.MulVec(xs[j], want[j])
			}
			for _, crossover := range []int{2, NeverBatch} { // tiled path, loop path
				op.eng.Load().batchCrossover = crossover
				yb := make([]float64, m.Rows*k)
				op.MulVecBatch(xb, yb, k)
				for j := 0; j < k; j++ {
					for i := 0; i < m.Rows; i++ {
						if yb[i*k+j] != want[j][i] {
							t.Fatalf("%v k=%d crossover=%d: y[%d][col %d] = %g, want %g",
								f, k, crossover, i, j, yb[i*k+j], want[j][i])
						}
					}
				}
			}
		}
	}
}

// TestMulVecBatchCrossoverRecorded pins the Decision contract: a fresh
// tuning run records a probed crossover (a probe width or NeverBatch) and a
// non-zero probe time for non-empty matrices.
func TestMulVecBatchCrossoverRecorded(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := gen.RandomUniform[float64](1000, 1000, 8, rand.New(rand.NewSource(12)))
	op, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	valid := d.BatchCrossover == NeverBatch
	for _, w := range batchProbeWidths {
		if d.BatchCrossover == w {
			valid = true
		}
	}
	if !valid {
		t.Errorf("BatchCrossover = %d, want a probe width or NeverBatch", d.BatchCrossover)
	}
	if op.eng.Load().batchCrossover != d.BatchCrossover {
		t.Errorf("operator crossover %d differs from decision %d", op.eng.Load().batchCrossover, d.BatchCrossover)
	}
	if d.BatchProbeSec <= 0 {
		t.Errorf("BatchProbeSec = %g, want > 0", d.BatchProbeSec)
	}
	if d.Overhead() <= 0 {
		t.Errorf("Overhead = %g, want > 0 (probe cost must be accounted)", d.Overhead())
	}
}

// TestCacheHitReusesCrossover: the second tuner call for an identical
// fingerprint must bind the leader's measured crossover without re-probing.
func TestCacheHitReusesCrossover(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatELL, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := gen.ConstantDegree[float64](600, 5, rand.New(rand.NewSource(13)))
	op1, d1, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	op2, d2, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.CacheHit {
		t.Fatal("second tune missed the cache")
	}
	if d2.BatchProbeSec != 0 {
		t.Errorf("cache hit re-ran the crossover probe (%gs)", d2.BatchProbeSec)
	}
	want := d1.BatchCrossover
	if want < 2 {
		want = defaultBatchCrossover
	}
	if op2.eng.Load().batchCrossover != want || d2.BatchCrossover != want {
		t.Errorf("cache hit crossover = %d (decision %d), want %d",
			op2.eng.Load().batchCrossover, d2.BatchCrossover, want)
	}
	_ = op1
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

// TestMulVecBatchZeroAlloc is the serving contract: after one warm-up call,
// MulVecBatch allocates nothing on either path (the loop path's gather and
// scatter scratch is cached on the operator).
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
	for _, k := range []int{2, 5, 8} {
		_, xb := batchInput(m.Cols, k)
		yb := make([]float64, m.Rows*k)
		for _, crossover := range []int{2, NeverBatch} { // tiled path, loop path
			op.eng.Load().batchCrossover = crossover
			op.MulVecBatch(xb, yb, k) // warm: plan, workers, loop scratch
			if allocs := testing.AllocsPerRun(20, func() { op.MulVecBatch(xb, yb, k) }); allocs != 0 {
				t.Errorf("k=%d crossover=%d: %.1f allocs per steady-state call, want 0", k, crossover, allocs)
			}
		}
	}
}
