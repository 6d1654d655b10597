package solve

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// csrOp is a plain serial CSR operator: the reference Operator for the
// solver tests.
type csrOp struct{ a *matrix.CSR[float64] }

func (o csrOp) MulVec(x, y []float64) {
	a := o.a
	for r := 0; r < a.Rows; r++ {
		var s float64
		for jj := a.RowPtr[r]; jj < a.RowPtr[r+1]; jj++ {
			s += a.Vals[jj] * x[a.ColIdx[jj]]
		}
		y[r] = s
	}
}

// diagPrec is a Jacobi (diagonal) preconditioner.
type diagPrec struct{ d []float64 }

func (p diagPrec) Apply(r, z []float64) {
	for i := range r {
		z[i] = r[i] / p.d[i]
	}
}

func spdSystem(t *testing.T, nx int, seed int64) (*matrix.CSR[float64], []float64, []float64) {
	t.Helper()
	a := gen.Laplacian2D5pt[float64](nx, nx)
	rng := rand.New(rand.NewSource(seed))
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	csrOp{a}.MulVec(want, b)
	return a, b, want
}

func TestCGConvergesOnSPD(t *testing.T) {
	a, b, want := spdSystem(t, 16, 3)
	x := make([]float64, a.Rows)
	stats, err := CG[float64](csrOp{a}, nil, b, x, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("CG did not converge: %+v", stats)
	}
	if !matrix.VecApproxEqual(x, want, 1e-6) {
		t.Error("CG solution wrong")
	}
}

func TestCGPreconditionedConverges(t *testing.T) {
	// Badly scaled SPD diagonal-dominant system: Jacobi preconditioning
	// must not hurt and the solution must still be right.
	n := 400
	var ts []matrix.Triple[float64]
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: math.Pow(10, 4*rng.Float64())})
		if i+1 < n {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i + 1, Val: -0.1})
			ts = append(ts, matrix.Triple[float64]{Row: i + 1, Col: i, Val: -0.1})
		}
	}
	a, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	csrOp{a}.MulVec(want, b)

	xp := make([]float64, n)
	pre, err := CG[float64](csrOp{a}, diagPrec{a.Diagonal()}, b, xp, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.Converged {
		t.Fatalf("preconditioned CG did not converge: %+v", pre)
	}
	if !matrix.VecApproxEqual(xp, want, 1e-6) {
		t.Error("preconditioned CG solution wrong")
	}
	xc := make([]float64, n)
	plain, err := CG[float64](csrOp{a}, nil, b, xc, 1e-12, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Converged && plain.Iterations < pre.Iterations {
		t.Errorf("Jacobi preconditioning hurt on a badly scaled system: %d vs %d iterations",
			pre.Iterations, plain.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](5, 5)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	stats, err := CG[float64](csrOp{a}, nil, make([]float64, a.Rows), x, 1e-12, 50)
	if err != nil || !stats.Converged || stats.Iterations != 0 {
		t.Fatalf("zero RHS: stats=%+v err=%v", stats, err)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x not zeroed on zero RHS")
		}
	}
}

func TestCGIndefiniteBreakdown(t *testing.T) {
	a, err := matrix.FromTriples(2, 2, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	stats, err := CG[float64](csrOp{a}, nil, []float64{0, 1}, x, 1e-12, 100)
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("indefinite system: err=%v, want ErrBreakdown", err)
	}
	if stats.Converged {
		t.Error("indefinite system reported converged")
	}
	for _, v := range x {
		if math.IsNaN(v) {
			t.Fatal("breakdown left NaN in x")
		}
	}
}

func TestCGSingularBreakdown(t *testing.T) {
	// Semidefinite A = diag(1, 0) with b outside the range: p ends up in
	// the null space, pᵀAp = 0, and CG must error out, not NaN-loop.
	a, err := matrix.FromTriples(2, 2, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	_, err = CG[float64](csrOp{a}, nil, []float64{0, 1}, x, 1e-12, 100)
	if !errors.Is(err, ErrBreakdown) {
		t.Fatalf("singular system: err=%v, want ErrBreakdown", err)
	}
}

func TestCGMaxIterZero(t *testing.T) {
	a, b, _ := spdSystem(t, 8, 7)
	x := make([]float64, a.Rows)
	stats, err := CG[float64](csrOp{a}, nil, b, x, 1e-12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations != 0 || stats.Converged {
		t.Fatalf("maxIter=0: stats=%+v", stats)
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("maxIter=0 moved x")
		}
	}
}

func TestCG1x1(t *testing.T) {
	a, err := matrix.FromTriples(1, 1, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 4}})
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0}
	stats, err := CG[float64](csrOp{a}, nil, []float64{8}, x, 1e-14, 10)
	if err != nil || !stats.Converged {
		t.Fatalf("1x1: stats=%+v err=%v", stats, err)
	}
	if math.Abs(x[0]-2) > 1e-12 {
		t.Fatalf("1x1: x=%g want 2", x[0])
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 100, 1023} {
		a := make([]float64, n)
		b := make([]float64, n)
		want := 0.0
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
			want += a[i] * b[i]
		}
		if got := Dot(a, b); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("n=%d: Dot=%g naive=%g", n, got, want)
		}
	}
}
