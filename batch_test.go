package smat

import (
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

func TestBatchPackUnpackRoundTrip(t *testing.T) {
	vecs := [][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
		{10, 11, 12},
		{13, 14, 15},
	}
	b, err := PackBatch(vecs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.Width() != 5 {
		t.Fatalf("batch %d×%d, want 3×5", b.Len(), b.Width())
	}
	// Interleaved invariant: element c of vector j at data[c*k+j].
	for j, v := range vecs {
		for c, x := range v {
			if got := b.Data()[c*b.Width()+j]; got != x {
				t.Fatalf("data[%d*%d+%d] = %g, want %g", c, b.Width(), j, got, x)
			}
		}
	}
	out := b.Unpack()
	for j := range vecs {
		for c := range vecs[j] {
			if out[j][c] != vecs[j][c] {
				t.Fatalf("unpacked[%d][%d] = %g, want %g", j, c, out[j][c], vecs[j][c])
			}
		}
	}
	// Col into a caller buffer.
	dst := make([]float64, 3)
	if got := b.Col(2, dst); &got[0] != &dst[0] || got[1] != 8 {
		t.Fatal("Col did not fill the provided destination")
	}
}

func TestBatchPackRejectsRaggedVectors(t *testing.T) {
	if _, err := PackBatch([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged vectors accepted")
	}
	b, err := PackBatch[float64](nil)
	if err != nil || b.Width() != 0 {
		t.Errorf("empty pack: batch %v err %v", b, err)
	}
}

// TestCSRSpMVBatchMatchesLoopedCSRSpMV drives the full public batched path
// on a band, a constant-degree, a power-law and an irregular input and checks
// each unpacked result column against a plain CSRSpMV of the same input
// column.
func TestCSRSpMVBatchMatchesLoopedCSRSpMV(t *testing.T) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(2))
	defer tn.Close()
	mats := map[string]*Matrix[float64]{
		"diagonal":  {csr: gen.MultiDiagonal[float64](500, []int{-1, 0, 1}, rand.New(rand.NewSource(31)))},
		"constant":  {csr: gen.ConstantDegree[float64](500, 4, rand.New(rand.NewSource(32)))},
		"powerlaw":  {csr: gen.PreferentialAttachment[float64](500, 3, rand.New(rand.NewSource(33)))},
		"irregular": {csr: gen.RandomUniform[float64](500, 500, 8, rand.New(rand.NewSource(34)))},
	}
	for name, a := range mats {
		rows, cols := a.Dims()
		for _, k := range []int{1, 2, 4, 5, 8} {
			vecs := make([][]float64, k)
			for j := range vecs {
				vecs[j] = make([]float64, cols)
				for c := range vecs[j] {
					vecs[j][c] = float64(1 + (c+7*j)%5)
				}
			}
			xb, err := PackBatch(vecs)
			if err != nil {
				t.Fatal(err)
			}
			yb := NewBatch[float64](rows, k)
			if err := tn.CSRSpMVBatch(a, xb.Data(), yb.Data(), k); err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			want := make([]float64, rows)
			for j := 0; j < k; j++ {
				if err := tn.CSRSpMV(a, vecs[j], want); err != nil {
					t.Fatal(err)
				}
				got := yb.Col(j, nil)
				if !matrix.VecApproxEqual(got, want, 1e-9) {
					t.Fatalf("%s k=%d col %d: batched column diverges from CSRSpMV", name, k, j)
				}
			}
		}
		// k = 0 is a no-op.
		if err := tn.CSRSpMVBatch(a, nil, nil, 0); err != nil {
			t.Fatalf("%s k=0: %v", name, err)
		}
	}
}

// TestDecisionReportsBatchCrossover pins the deprecated Decision field: every
// batch of two or more runs the tiled kernel, so BatchCrossover is 2 before
// and after a batched call.
func TestDecisionReportsBatchCrossover(t *testing.T) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(2))
	defer tn.Close()
	a := &Matrix[float64]{csr: gen.RandomUniform[float64](800, 800, 8, rand.New(rand.NewSource(35)))}
	op, err := tn.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	// No iteration hint was given, so only the fallback measured a baseline.
	if d := op.Decision(); d.BatchCrossover != 2 || (d.Overhead() > 0) != d.UsedFallback {
		t.Errorf("before any batched call: BatchCrossover = %d, Overhead = %g (fallback: %v); want 2, and an overhead exactly where the tune measured its unit",
			d.BatchCrossover, d.Overhead(), d.UsedFallback)
	}
	const k = 4
	rows, cols := a.Dims()
	if err := tn.CSRSpMVBatch(a, make([]float64, cols*k), make([]float64, rows*k), k); err != nil {
		t.Fatal(err)
	}
	if d := op.Decision(); d.BatchCrossover != 2 {
		t.Errorf("after a batched call: BatchCrossover = %d, want 2", d.BatchCrossover)
	}
}

// BenchmarkMulVecBatch is the batched serving smoke benchmark: steady-state
// batched SpMV through the public operator at small and tile-width batches.
func BenchmarkMulVecBatch(b *testing.B) {
	tn := NewTuner[float64](DefaultModel(), WithThreads(4))
	defer tn.Close()
	a := &Matrix[float64]{csr: gen.RandomUniform[float64](20000, 20000, 15, rand.New(rand.NewSource(36)))}
	op, err := tn.Tune(a)
	if err != nil {
		b.Fatal(err)
	}
	rows, cols := a.Dims()
	for _, k := range []int{1, 4, 8} {
		xb := make([]float64, cols*k)
		for i := range xb {
			xb[i] = float64(1 + i%5)
		}
		yb := make([]float64, rows*k)
		b.Run(map[int]string{1: "k1", 4: "k4", 8: "k8"}[k], func(b *testing.B) {
			op.MulVecBatch(xb, yb, k) // warm plan, workers, scratch
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.MulVecBatch(xb, yb, k)
			}
		})
	}
}
