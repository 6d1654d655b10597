package kernels

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// TestSpGEMMEmptyAndZeroRows: Galerkin products with an empty operand come
// out empty and correctly shaped at any chunk count.
func TestSpGEMMEmptyAndZeroRows(t *testing.T) {
	empty, err := matrix.FromTriples[float64](10, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	p := randCSR(rng, 10, 4, 0.3)
	for _, threads := range []int{1, 4} {
		got := GalerkinRAP(p.Transpose(), empty, p, nil, threads)
		if got.NNZ() != 0 || got.Rows != 4 || got.Cols != 4 {
			t.Fatalf("threads=%d: Pᵀ·empty·P: got %d nnz, %dx%d", threads, got.NNZ(), got.Rows, got.Cols)
		}
		if want := matrix.TripleProduct(empty, p, p.Transpose()); !want.Equal(GalerkinRAP(empty, p, p.Transpose(), nil, threads)) {
			t.Fatalf("threads=%d: empty·P·Pᵀ differs from matrix.TripleProduct", threads)
		}
	}
}

func TestSpGEMMDimensionMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randCSR(rng, 5, 5, 0.5)
	p := randCSR(rng, 6, 4, 0.5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	GalerkinRAP(p.Transpose(), a, p, nil, 1)
}

func TestGalerkinRAPMatchesTripleProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Galerkin shapes: P is tall (fine×coarse), R = Pᵀ.
	a := randCSR(rng, 120, 120, 0.06)
	p := randCSR(rng, 120, 40, 0.1)
	r := p.Transpose()
	want := matrix.TripleProduct(r, a, p)
	got := GalerkinRAP(r, a, p, nil, 1)
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %dx%d want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	// The row-fused association differs from the two-pass product, so
	// compare to a rounding tolerance, not bit-for-bit. Entries that cancel
	// to an exact zero on one path but not the other differ structurally, so
	// compare through At over the reference pattern.
	for i := 0; i < want.Rows; i++ {
		for jj := want.RowPtr[i]; jj < want.RowPtr[i+1]; jj++ {
			c := want.ColIdx[jj]
			w, g := want.Vals[jj], got.At(i, c)
			if d := w - g; d > 1e-9 || d < -1e-9 {
				t.Fatalf("entry (%d,%d): row-fused %g vs two-pass %g", i, c, g, w)
			}
		}
	}
}

// TestGalerkinRAPResultOwnsExactArrays: a product run without a pool keeps
// only its exact-size result arrays live, not the bound-sized scratch its
// rows were written into. On A·A·A of a 9-point stencil the summed row
// bounds are ≈ 15× the result's entries, so a result that aliased the
// scratch would hold that much more memory.
func TestGalerkinRAPResultOwnsExactArrays(t *testing.T) {
	a := gen.Laplacian2D9pt[float64](32, 32)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	got := GalerkinRAP(a, a, a, nil, 1)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	grew := int64(ms.HeapAlloc) - int64(before)
	runtime.KeepAlive(got)

	bound := 0
	for _, j := range a.ColIdx {
		for _, k := range a.ColIdx[a.RowPtr[j]:a.RowPtr[j+1]] {
			bound += a.RowPtr[k+1] - a.RowPtr[k]
		}
	}
	if bound < 10*got.NNZ() {
		t.Fatalf("row bounds sum to %d for %d result entries: the shape no longer separates scratch from result", bound, got.NNZ())
	}
	bytes := int64(16*got.NNZ() + 8*len(got.RowPtr))
	if grew >= 2*bytes {
		t.Fatalf("heap grew %d bytes holding a %d-byte result (%d entries, row bounds %d)", grew, bytes, got.NNZ(), bound)
	}
}

func TestGalerkinRAPPooledBitForBitWithSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randCSR(rng, 300, 300, 0.03)
	p := randCSR(rng, 300, 90, 0.05)
	r := p.Transpose()
	serial := GalerkinRAP(r, a, p, nil, 1)
	for _, threads := range []int{2, 3, 8} {
		if got := GalerkinRAP(r, a, p, nil, threads); !serial.Equal(got) {
			t.Fatalf("threads=%d: caller-run chunks differ from one chunk", threads)
		}
		pool := NewPool[float64](threads)
		got := GalerkinRAP(r, a, p, pool, threads)
		pool.Close()
		if !serial.Equal(got) {
			t.Fatalf("threads=%d: pooled GalerkinRAP differs from serial", threads)
		}
	}
}

// TestRunChunksConcurrentWithSpMV hammers one pool with Galerkin products
// from six goroutines at once: a caller that finds the pool busy runs its
// chunks itself, and every result must stay exact. Run under -race this pins
// the wake-barrier protocol for the generic-job path.
func TestRunChunksConcurrentWithSpMV(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randCSR(rng, 150, 150, 0.05)
	p := randCSR(rng, 150, 50, 0.05)
	r := p.Transpose()
	want := GalerkinRAP(r, a, p, nil, 1)
	pool := NewPool[float64](4)
	defer pool.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if got := GalerkinRAP(r, a, p, pool, 4); !want.Equal(got) {
					t.Error("concurrent GalerkinRAP result differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPoolRunChunksCoversAllChunks(t *testing.T) {
	pool := NewPool[float64](4)
	defer pool.Close()
	bounds := []int{0, 3, 7, 12, 20}
	hit := make([]int, 20)
	var mu sync.Mutex
	pool.RunChunks(bounds, func(chunk, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			hit[i]++
		}
	})
	for i, n := range hit {
		if n != 1 {
			t.Fatalf("index %d covered %d times", i, n)
		}
	}
	// More chunks than workers: the caller runs them, still covering everything.
	wide := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	hit2 := make([]int, 8)
	pool.RunChunks(wide, func(chunk, lo, hi int) {
		mu.Lock()
		defer mu.Unlock()
		for i := lo; i < hi; i++ {
			hit2[i]++
		}
	})
	for i, n := range hit2 {
		if n != 1 {
			t.Fatalf("fallback: index %d covered %d times", i, n)
		}
	}
}
