package oracle

import (
	"testing"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// TestSpGEMMDifferential walks the adversarial structure suite through the
// row-blocked Galerkin product checks: bit-for-bit across one chunk, four
// caller-run chunks and the pool, and the rounding bound vs the float64
// two-pass reference.
func TestSpGEMMDifferential(t *testing.T) {
	opt := Options{}
	if testing.Short() {
		opt.Threads = []int{2, 3}
	}
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if err := CheckSpGEMM[float64](&s, opt); err != nil {
				t.Error(err)
			}
			if err := CheckSpGEMM[float32](&s, opt); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSolversDifferential runs the residual-checked tuned-vs-reference
// solver suite for both element types.
func TestSolversDifferential(t *testing.T) {
	opt := Options{}
	if testing.Short() {
		opt.Threads = []int{2}
	}
	if err := CheckSolvers[float64](opt); err != nil {
		t.Error(err)
	}
	if err := CheckSolvers[float32](opt); err != nil {
		t.Error(err)
	}
}

// TestSpGEMMRowsAllocateNothing pins the row bodies' side of the SpGEMM arena
// contract: on a warm pool a product allocates its result and a fixed set of
// per-call headers, never anything per row or per chunk. Four times the rows
// at one chunk, and four chunks at the larger size, must each cost the same
// number of allocations as the small single-chunk product, on two shapes:
// a singleton-row R (one A row per output row) and A·A·A. The row body runs
// once per chunk, so the chunk sweep catches an allocation at the top of the
// body and the row sweep one inside its loop.
func TestSpGEMMRowsAllocateNothing(t *testing.T) {
	pool := kernels.NewPool[float64](4)
	defer pool.Close()
	allocs := func(n, threads int) [2]float64 {
		a := gen.Laplacian2D5pt[float64](n, n)
		id := matrix.Identity[float64](a.Rows)
		products := [2]func(){
			func() { kernels.GalerkinRAP(id, a, id, pool, threads) },
			func() { kernels.GalerkinRAP(a, a, a, pool, threads) },
		}
		var out [2]float64
		for i, f := range products {
			out[i] = allocFloor(f)
		}
		return out
	}
	allocs(64, 4) // warm: size the pool's arena for the larger products
	base := allocs(32, 1)
	for _, c := range []struct {
		n, threads int
		what       string
	}{
		{64, 1, "4096 rows in one chunk"},
		{64, 4, "4096 rows in four chunks"},
	} {
		got := allocs(c.n, c.threads)
		for i, name := range []string{"singleton-row R", "A·A·A"} {
			if got[i] != base[i] {
				t.Errorf("%s: %.0f allocations at 1024 rows in one chunk, %.0f at %s: the row bodies allocate", name, base[i], got[i], c.what)
			}
		}
	}
}

// allocFloor is f's allocation count per run, the least of three
// testing.AllocsPerRun averages. The runtime's own background allocations
// land in the same counter and can lift one average by a whole count; an
// allocation f makes is in every run, so it stays in the floor.
func allocFloor(f func()) float64 {
	low := testing.AllocsPerRun(5, f)
	for i := 0; i < 2; i++ {
		low = min(low, testing.AllocsPerRun(5, f))
	}
	return low
}
