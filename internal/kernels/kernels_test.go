package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smat/internal/matrix"
)

func randCSR(rng *rand.Rand, rows, cols int, density float64) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := matrix.FromTriples(rows, cols, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// runAll runs every registered kernel on m and checks it against the dense
// reference result.
func runAll(t *testing.T, m *matrix.CSR[float64], x []float64, threads int) {
	t.Helper()
	lib := NewLibrary[float64]()
	want := make([]float64, m.Rows)
	m.ToDense().MulVec(x, want)
	for _, f := range matrix.Formats {
		mat, err := Convert(m, f, 0)
		if err != nil {
			t.Fatalf("Convert to %v: %v", f, err)
		}
		for _, k := range lib.ForFormat(f) {
			y := make([]float64, m.Rows)
			for i := range y {
				y[i] = 999 // verify kernels fully overwrite y
			}
			k.Run(mat, x, y, threads)
			if !matrix.VecApproxEqual(y, want, 1e-9) {
				t.Errorf("kernel %s (threads=%d) wrong result on %dx%d nnz=%d",
					k.Name, threads, m.Rows, m.Cols, m.NNZ())
			}
		}
	}
}

func TestAllKernelsMatchDenseReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		m := randCSR(rng, rows, cols, 0.05+rng.Float64()*0.4)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		m.ToDense().MulVec(x, want)
		lib := NewLibrary[float64]()
		for _, fm := range matrix.Formats {
			mat, err := Convert(m, fm, 0)
			if err != nil {
				return false
			}
			for _, k := range lib.ForFormat(fm) {
				y := make([]float64, rows)
				k.Run(mat, x, y, 3)
				if !matrix.VecApproxEqual(y, want, 1e-9) {
					t.Logf("kernel %s mismatch (seed %d)", k.Name, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKernelsOnLargeMatrixParallelPaths(t *testing.T) {
	// Big enough (≥2048 rows) to exercise the goroutine fan-out paths.
	rng := rand.New(rand.NewSource(42))
	m := randCSR(rng, 3000, 3000, 0.002)
	x := make([]float64, 3000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	counts := []int{1, 2, 7, 16}
	if testing.Short() {
		counts = []int{7} // -race -short in CI: one fan-out shape is enough
	}
	for _, threads := range counts {
		runAll(t, m, x, threads)
	}
}

func TestKernelsFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ts []matrix.Triple[float32]
	for r := 0; r < 50; r++ {
		for c := 0; c < 50; c++ {
			if rng.Float64() < 0.2 {
				ts = append(ts, matrix.Triple[float32]{Row: r, Col: c, Val: float32(rng.NormFloat64())})
			}
		}
	}
	m, err := matrix.FromTriples(50, 50, ts)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float32, 50)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	want := make([]float32, 50)
	m.ToDense().MulVec(x, want)
	lib := NewLibrary[float32]()
	for _, f := range matrix.Formats {
		mat, err := Convert(m, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range lib.ForFormat(f) {
			y := make([]float32, 50)
			k.Run(mat, x, y, 2)
			if !matrix.VecApproxEqual(y, want, 1e-4) {
				t.Errorf("float32 kernel %s mismatch", k.Name)
			}
		}
	}
}

func TestEmptyMatrixAllKernels(t *testing.T) {
	m, err := matrix.FromTriples[float64](10, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 10)
	lib := NewLibrary[float64]()
	for _, f := range matrix.Formats {
		mat, err := Convert(m, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range lib.ForFormat(f) {
			y := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
			k.Run(mat, x, y, 2)
			for i, v := range y {
				if v != 0 {
					t.Errorf("kernel %s: y[%d] = %g on empty matrix, want 0", k.Name, i, v)
				}
			}
		}
	}
}

func TestLibraryRegistry(t *testing.T) {
	lib := NewLibrary[float64]()
	names := lib.Names()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate kernel name %q", n)
		}
		seen[n] = true
		if lib.Lookup(n) == nil {
			t.Errorf("Lookup(%q) = nil", n)
		}
	}
	if lib.Lookup("no_such_kernel") != nil {
		t.Error("Lookup of unknown kernel returned non-nil")
	}
	for _, f := range matrix.Formats {
		b := lib.Basic(f)
		if b == nil {
			t.Fatalf("no basic kernel for %v", f)
		}
		if b.Strategies != 0 {
			t.Errorf("basic kernel for %v has strategies %v", f, b.Strategies)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	lib := NewLibrary[float64]()
	lib.Register(&Kernel[float64]{Name: "csr_basic", Format: matrix.FormatCSR})
}

func TestRunFormatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("format mismatch did not panic")
		}
	}()
	lib := NewLibrary[float64]()
	m, _ := matrix.FromTriples(2, 2, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 1}})
	mat, _ := Convert(m, matrix.FormatCOO, 0)
	lib.Basic(matrix.FormatCSR).Run(mat, []float64{1, 1}, make([]float64, 2), 1)
}

func TestConvertFillGuardPropagates(t *testing.T) {
	var ts []matrix.Triple[float64]
	n := 100
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: n - 1 - i, Val: 1})
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Convert(m, matrix.FormatDIA, 8); err == nil {
		t.Error("Convert to DIA ignored fill guard")
	}
	if _, err := Convert(m, matrix.FormatELL, 8); err != nil {
		t.Errorf("Convert to ELL should succeed (width 1): %v", err)
	}
}

func TestStrategyStringAndCount(t *testing.T) {
	cases := []struct {
		s     Strategy
		str   string
		count int
	}{
		{0, "basic", 0},
		{StratParallel, "parallel", 1},
		{StratParallel | StratUnroll4, "parallel+unroll4", 2},
		{StratParallel | StratNNZBalance | StratUnroll4, "parallel+unroll4+nnzbalance", 3},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.str {
			t.Errorf("String(%d) = %q, want %q", c.s, got, c.str)
		}
		if got := c.s.Count(); got != c.count {
			t.Errorf("Count(%d) = %d, want %d", c.s, got, c.count)
		}
	}
}

func TestNNZBalancedRowBounds(t *testing.T) {
	// Row degrees: skewed so nnz balancing differs from row balancing.
	rng := rand.New(rand.NewSource(5))
	rowPtr := make([]int, 5001)
	for i := 1; i <= 5000; i++ {
		deg := 1
		if i < 100 {
			deg = 200 // a few heavy rows at the top
		}
		_ = rng
		rowPtr[i] = rowPtr[i-1] + deg
	}
	bounds := nnzBalancedRowBounds(rowPtr, 4)
	if bounds[0] != 0 || bounds[len(bounds)-1] != 5000 {
		t.Fatalf("bounds do not cover all rows: %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("bounds not monotone: %v", bounds)
		}
	}
	// The first chunk should be much shorter in rows than the last.
	first := bounds[1] - bounds[0]
	last := bounds[len(bounds)-1] - bounds[len(bounds)-2]
	if first >= last {
		t.Errorf("nnz balancing had no effect: first chunk %d rows, last %d", first, last)
	}
}

func TestCOOBoundsRowAligned(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randCSR(rng, 500, 500, 0.05).ToCOO()
	bounds := cooBounds(m, 7)
	if bounds[0] != 0 || bounds[len(bounds)-1] != m.NNZ() {
		t.Fatalf("bounds do not cover all entries: %v", bounds)
	}
	for i := 1; i < len(bounds)-1; i++ {
		b := bounds[i]
		if b <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
		if m.RowIdx[b] == m.RowIdx[b-1] {
			t.Fatalf("boundary %d splits row %d", b, m.RowIdx[b])
		}
	}
}

func TestFLOPs(t *testing.T) {
	if FLOPs(1000) != 2000 {
		t.Errorf("FLOPs(1000) = %d, want 2000", FLOPs(1000))
	}
}

func TestMatDims(t *testing.T) {
	m, _ := matrix.FromTriples(3, 7, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 1}})
	for _, f := range matrix.Formats {
		mat, err := Convert(m, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		r, c := mat.Dims()
		if r != 3 || c != 7 {
			t.Errorf("%v Dims = %dx%d, want 3x7", f, r, c)
		}
	}
}
