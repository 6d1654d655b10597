package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// packInterleaved packs k column vectors into the batched interleaved
// layout: out[c*k+j] = xs[j][c].
func packInterleaved(xs [][]float64, k, n int) []float64 {
	xb := make([]float64, n*k)
	for j := 0; j < k; j++ {
		for c := 0; c < n; c++ {
			xb[c*k+j] = xs[j][c]
		}
	}
	return xb
}

// batchVectors builds k distinct integer-valued input vectors (exact in
// float64, so results compare bit-for-bit across summation orders).
func batchVectors(n, k int) [][]float64 {
	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = make([]float64, n)
		for i := range xs[j] {
			xs[j][i] = float64(1 + (i+3*j)%7)
		}
	}
	return xs
}

// TestEveryBatchKernelMatchesColumnwiseBasic runs every registered batch
// kernel (including the HYB extension) under every plan shape — batch
// widths crossing the tile boundary, thread counts 1/2/3/8, caller-run and
// pooled dispatch — and requires column j of the batched product to equal
// csr_basic applied to input column j, bit for bit.
func TestEveryBatchKernelMatchesColumnwiseBasic(t *testing.T) {
	lib := fullLibrary[float64]()
	basic := lib.Basic(matrix.FormatCSR)

	widths := []int{1, 2, 4, 5, 7, 8, 16}
	if testing.Short() {
		widths = []int{1, 4, 5, 8}
	}
	for name, m := range engineCases() {
		for _, k := range widths {
			xs := batchVectors(m.Cols, k)
			want := make([][]float64, k)
			for j := 0; j < k; j++ {
				want[j] = make([]float64, m.Rows)
				basic.Run(&Mat[float64]{Format: matrix.FormatCSR, CSR: m}, xs[j], want[j], 1)
			}
			xb := packInterleaved(xs, k, m.Cols)

			for _, threads := range []int{1, 2, 3, 8} {
				pool := NewPool[float64](threads)
				for _, f := range allFormats {
					mat, err := Convert(m, f, 0)
					if err != nil {
						continue // fill guard: format unsuitable for this shape
					}
					for _, bk := range lib.ForFormatBatch(f) {
						for _, pooled := range []bool{false, true} {
							yb := make([]float64, m.Rows*k)
							for i := range yb {
								yb[i] = 123 // must be fully overwritten
							}
							if pooled {
								bk.RunPooled(mat, xb, yb, k, pool)
							} else {
								bk.Run(mat, xb, yb, k, threads)
							}
							for j := 0; j < k; j++ {
								for i := 0; i < m.Rows; i++ {
									if got := yb[i*k+j]; got != want[j][i] {
										t.Fatalf("%s: kernel %s k=%d threads=%d pooled=%v: y[%d][col %d] = %g, want %g",
											name, bk.Name, k, threads, pooled, i, j, got, want[j][i])
									}
								}
							}
						}
					}
				}
				pool.Close()
			}
		}
	}
}

// TestBatchKernelWidth1BitForBitWithPairedKernel pins the k=1 contract on a
// matrix with random (non-integer) values, where summation order shows: at
// width 1 each batch kernel's remainder loop must reproduce its paired
// single-vector kernel's accumulation order exactly.
func TestBatchKernelWidth1BitForBitWithPairedKernel(t *testing.T) {
	lib := fullLibrary[float64]()
	pairs := map[string]string{
		"csr_batch": "csr_basic",
		"coo_batch": "coo_basic",
		"dia_batch": "dia_rowmajor",
		"ell_batch": "ell_rowmajor",
		"hyb_batch": "hyb_basic",
	}

	rng := rand.New(rand.NewSource(21))
	var ts []matrix.Triple[float64]
	for r := 0; r < 200; r++ {
		for n := 0; n < 12; n++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: rng.Intn(200), Val: rng.NormFloat64()})
		}
	}
	m, err := matrix.FromTriples(200, 200, ts)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	for batchName, singleName := range pairs {
		bk := lib.batchByName[batchName]
		sk := lib.Lookup(singleName)
		if bk == nil || sk == nil {
			t.Fatalf("pair %s/%s not registered", batchName, singleName)
		}
		mat, err := Convert(m, bk.Format, 0)
		if err != nil {
			t.Fatalf("convert to %s: %v", bk.Format, err)
		}
		want := make([]float64, m.Rows)
		sk.Run(mat, x, want, 1)
		got := make([]float64, m.Rows)
		bk.Run(mat, x, got, 1, 1)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s k=1 vs %s: y[%d] = %v, want %v (order mismatch)",
					batchName, singleName, i, got[i], want[i])
			}
		}
	}
}

// TestTileGroupingKeepsBits pins what lets one cascade stand in for every
// tile width: a column's bits do not depend on the tile it falls in. On random
// (non-integer) values, for every batch kernel of every format and
// k ∈ {1…9, 12, 16, 17}, each aligned group of four columns inside the tiled
// prefix equals the k=4 product over those four vectors — so an eight-wide
// tile is its two four-wide halves, and k=12 is 8 + 4 — and each remainder
// column equals the kernel's own k=1 product of that vector. The four-wide
// pass and the scalar loop are the parent's, so these are the parent's bits.
func TestTileGroupingKeepsBits(t *testing.T) {
	lib := fullLibrary[float64]()
	rng := rand.New(rand.NewSource(26))
	const n = 150
	var ts []matrix.Triple[float64]
	for r := 0; r < n; r++ {
		for c := 0; c < 1+r%13; c++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: rng.Intn(n), Val: rng.NormFloat64()})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	const kmax = 17
	xs := make([][]float64, kmax)
	for j := range xs {
		xs[j] = make([]float64, n)
		for i := range xs[j] {
			xs[j][i] = rng.NormFloat64()
		}
	}
	for _, f := range allFormats {
		mat, err := Convert(m, f, 0)
		if err != nil {
			t.Fatalf("convert to %v: %v", f, err)
		}
		mat = mat.Partitioned() // the parallel rows run their partitions
		for _, bk := range lib.ForFormatBatch(f) {
			run := func(cols [][]float64) []float64 {
				k := len(cols)
				yb := make([]float64, n*k)
				bk.Run(mat, packInterleaved(cols, k, n), yb, k, 3)
				return yb
			}
			for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17} {
				got := run(xs[:k])
				for lo, width := 0, 4; lo < k; lo += width {
					if lo+width > k {
						width = 1
					}
					want := run(xs[lo : lo+width])
					for i := 0; i < n; i++ {
						for j := 0; j < width; j++ {
							if g, w := got[i*k+lo+j], want[i*width+j]; g != w {
								t.Fatalf("%s k=%d: y[%d][col %d] = %v, the k=%d product from column %d gives %v",
									bk.Name, k, i, lo+j, g, width, lo, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestBatchWidthZeroIsNoOp: k=0 must return without touching yb.
func TestBatchWidthZeroIsNoOp(t *testing.T) {
	lib := NewLibrary[float64]()
	rng := rand.New(rand.NewSource(22))
	m := intCSR(rng, 50, 50, 4)
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	pool := NewPool[float64](2)
	defer pool.Close()
	for _, name := range []string{"csr_batch", "csr_batch_parallel"} {
		bk := lib.batchByName[name]
		yb := []float64{7, 7, 7}
		bk.Run(mat, nil, yb[:0], 0, 2)
		bk.RunPooled(mat, nil, yb[:0], 0, pool)
		bk.Run(mat, nil, yb[:0], -3, 2)
		for i, v := range yb {
			if v != 7 {
				t.Fatalf("%s: k=0 wrote yb[%d] = %g", name, i, v)
			}
		}
	}
}

// TestBatchEmptyAndDegenerateShapes: 0-nonzero, 0×N, and N×0 matrices run
// every CSR batch width without panicking and produce all-zero output.
func TestBatchEmptyAndDegenerateShapes(t *testing.T) {
	lib := NewLibrary[float64]()
	shapes := []struct{ rows, cols int }{{10, 10}, {0, 5}, {5, 0}, {0, 0}}
	for _, sh := range shapes {
		m, err := matrix.FromTriples[float64](sh.rows, sh.cols, nil)
		if err != nil {
			t.Fatalf("%dx%d: %v", sh.rows, sh.cols, err)
		}
		mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
		for _, k := range []int{1, 5, 8} {
			xb := make([]float64, sh.cols*k)
			yb := make([]float64, sh.rows*k)
			for i := range yb {
				yb[i] = 9
			}
			lib.batchByName["csr_batch_parallel"].Run(mat, xb, yb, k, 4)
			for i, v := range yb {
				if v != 0 {
					t.Fatalf("%dx%d k=%d: yb[%d] = %g, want 0", sh.rows, sh.cols, k, i, v)
				}
			}
		}
	}
}

// TestBatchPooledZeroAlloc is the batched engine's allocation contract: with
// the batch plan cached and the workers up, a pooled batched SpMV of any
// width performs zero heap allocations per call.
func TestBatchPooledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	rng := rand.New(rand.NewSource(23))
	m := intCSR(rng, 5000, 5000, 6) // ~30k nonzeros: parallel path
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	lib := NewLibrary[float64]()
	pool := NewPool[float64](4)
	defer pool.Close()
	for _, k := range []int{2, 5, 8} {
		xb := make([]float64, m.Cols*k)
		for i := range xb {
			xb[i] = float64(1 + i%5)
		}
		yb := make([]float64, m.Rows*k)
		bk := lib.batchByName["csr_batch_parallel"]
		bk.RunPooled(mat, xb, yb, k, pool) // warm: plan + workers
		if allocs := testing.AllocsPerRun(50, func() { bk.RunPooled(mat, xb, yb, k, pool) }); allocs != 0 {
			t.Errorf("%s k=%d: %.1f allocs per steady-state call, want 0", bk.Name, k, allocs)
		}
	}
}

// TestPlanForBatchScalesCutoff pins the k-scaled serial cutoff: a matrix
// whose single-vector work sits under the cutoff parallelises once the batch
// width multiplies the estimate past it, and batch plans cache per
// (threads, k) without evicting the single-vector plan.
func TestPlanForBatchScalesCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := intCSR(rng, 500, 500, 6) // ~3k nonzeros: serial at k=1, parallel at k=8
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}

	p1 := mat.PlanFor(4)
	if !p1.Serial {
		t.Fatalf("k=1 plan not serial at %d nnz", m.NNZ())
	}
	if got := mat.PlanForBatch(4, 1); got != p1 {
		t.Error("PlanForBatch(4, 1) did not reuse the single-vector plan")
	}
	p8 := mat.PlanForBatch(4, 8)
	if p8.Serial {
		t.Errorf("k=8 plan serial; %d×8 work should clear the cutoff", m.NNZ())
	}
	if p8.BatchK != 8 {
		t.Errorf("BatchK = %d, want 8", p8.BatchK)
	}
	if mat.PlanForBatch(4, 8) != p8 {
		t.Error("PlanForBatch(4, 8) recomputed a cached plan")
	}
	if mat.PlanFor(4) != p1 {
		t.Error("batch plan evicted the single-vector plan")
	}
	p16 := mat.PlanForBatch(4, 16)
	if p16 == p8 || p16.BatchK != 16 {
		t.Errorf("PlanForBatch(4, 16) returned BatchK=%d plan", p16.BatchK)
	}
}

func BenchmarkSpMMSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	m := gen.RandomUniform[float64](20000, 20000, 30, rng)
	mat, err := Convert(m, matrix.FormatCSR, 0)
	if err != nil {
		b.Fatal(err)
	}
	lib := NewLibrary[float64]()
	bk := lib.batchByName["csr_batch_parallel"]
	pool := NewPool[float64](8)
	defer pool.Close()
	for _, k := range []int{1, 4, 8, 16} {
		xb := make([]float64, m.Cols*k)
		for i := range xb {
			xb[i] = float64(1 + i%5)
		}
		yb := make([]float64, m.Rows*k)
		b.Run(fmt.Sprintf("csr_batch_parallel/k%d", k), func(b *testing.B) {
			bk.RunPooled(mat, xb, yb, k, pool) // warm plan + workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bk.RunPooled(mat, xb, yb, k, pool)
			}
			// Per-vector GFLOPS: the amortisation metric.
			b.ReportMetric(float64(FLOPs(m.NNZ()))*float64(k)/1e9*float64(b.N)/b.Elapsed().Seconds(), "gflops")
		})
	}
}
