package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smat/internal/matrix"
)

func TestHYBKernelsMatchDenseReferenceProperty(t *testing.T) {
	lib := NewLibrary[float64]()
	lib.RegisterHYB()
	hybs := lib.ForFormat(matrix.FormatHYB)
	if len(hybs) != 3 {
		t.Fatalf("%d HYB kernels, want 3", len(hybs))
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		m := randCSR(rng, rows, cols, 0.05+rng.Float64()*0.4)
		mat, err := Convert(m, matrix.FormatHYB, 0)
		if err != nil {
			return false
		}
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		m.ToDense().MulVec(x, want)
		for _, k := range hybs {
			y := make([]float64, rows)
			k.Run(mat, x, y, 3)
			if !matrix.VecApproxEqual(y, want, 1e-9) {
				t.Logf("kernel %s mismatch (seed %d)", k.Name, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHYBKernelsLargeParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Skewed: many short rows plus a handful of heavy ones, HYB's home turf.
	var ts []matrix.Triple[float64]
	n := 5000
	for r := 0; r < n; r++ {
		deg := 2
		if r%500 == 0 {
			deg = 300
		}
		seen := map[int]bool{}
		for len(seen) < deg {
			c := rng.Intn(n)
			if !seen[c] {
				seen[c] = true
				ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Convert(m, matrix.FormatHYB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mat.HYB.COO.NNZ() == 0 {
		t.Fatal("skewed matrix produced empty COO tail")
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, n)
	m.ToDense().MulVec(x, want)
	lib := NewLibrary[float64]()
	lib.RegisterHYB()
	// The shape this test is for: enough ELL work to partition, a COO tail
	// short enough to accumulate serially after it.
	if p := mat.PlanFor(4); p.Serial || !p.TailSerial {
		t.Fatalf("plan at 4 threads %+v (tail %d entries): want a parallel ELL phase with a serial tail", p, mat.HYB.COO.NNZ())
	}
	for _, threads := range []int{1, 4} {
		for _, k := range lib.ForFormat(matrix.FormatHYB) {
			y := make([]float64, n)
			k.Run(mat, x, y, threads)
			if !matrix.VecApproxEqual(y, want, 1e-9) {
				t.Errorf("kernel %s (threads=%d) wrong result", k.Name, threads)
			}
		}
	}
	r, c := mat.Dims()
	if r != n || c != n {
		t.Errorf("Dims = %dx%d", r, c)
	}
}

func TestStockLibraryHasNoHYB(t *testing.T) {
	lib := NewLibrary[float64]()
	if len(lib.ForFormat(matrix.FormatHYB)) != 0 {
		t.Error("HYB kernels registered without opt-in")
	}
	if lib.Lookup("hyb_basic") != nil {
		t.Error("hyb_basic present without opt-in")
	}
}
