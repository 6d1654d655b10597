package amg

import (
	"errors"
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/solve"
)

func poissonSystem(t *testing.T, nx int) (*matrix.CSR[float64], []float64, []float64) {
	t.Helper()
	a := gen.Laplacian2D5pt[float64](nx, nx)
	rng := rand.New(rand.NewSource(3))
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	a.ToDense().MulVec(want, b)
	return a, b, want
}

func TestPlainCGConvergesOnSPD(t *testing.T) {
	a, b, want := poissonSystem(t, 16)
	x := make([]float64, a.Rows)
	stats, _ := solve.CG[float64](csrOp[float64]{a}, nil, b, x, 1e-10, 2000)
	if !stats.Converged {
		t.Fatalf("plain CG did not converge: %+v", stats)
	}
	if !matrix.VecApproxEqual(x, want, 1e-6) {
		t.Error("CG solution wrong")
	}
}

func TestAMGPreconditionedCGBeatsPlainCG(t *testing.T) {
	a, b, want := poissonSystem(t, 40)
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	xp := make([]float64, a.Rows)
	pcg := h.SolvePCG(b, xp, 1e-10, 500)
	if !pcg.Converged {
		t.Fatalf("AMG-PCG did not converge: %+v", pcg)
	}
	if !matrix.VecApproxEqual(xp, want, 1e-5) {
		t.Error("AMG-PCG solution wrong")
	}
	xc := make([]float64, a.Rows)
	cg, _ := solve.CG[float64](csrOp[float64]{a}, nil, b, xc, 1e-10, 500)
	if cg.Converged && cg.Iterations <= pcg.Iterations {
		t.Errorf("AMG preconditioning did not help: PCG %d iters vs CG %d",
			pcg.Iterations, cg.Iterations)
	}
	if pcg.Iterations > 30 {
		t.Errorf("AMG-PCG took %d iterations on Poisson, want few", pcg.Iterations)
	}
}

func TestPCGZeroRHS(t *testing.T) {
	a := lap1D(20)
	x := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	stats, _ := solve.CG[float64](csrOp[float64]{a}, nil, make([]float64, 20), x, 1e-12, 10)
	if !stats.Converged {
		t.Error("zero RHS did not converge")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("x not zeroed")
		}
	}
}

func TestPCGStopsOnNonSPD(t *testing.T) {
	// An indefinite operator: CG must bail out instead of looping.
	a, err := matrix.FromTriples(2, 2, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 2)
	stats, err := solve.CG[float64](csrOp[float64]{a}, nil, []float64{0, 1}, x, 1e-12, 100)
	if !errors.Is(err, solve.ErrBreakdown) {
		t.Errorf("indefinite system: err %v, want solve.ErrBreakdown", err)
	}
	if stats.Converged {
		t.Error("indefinite system reported converged")
	}
	if stats.Iterations >= 100 {
		t.Error("CG did not stop early on indefinite system")
	}
}

func TestPCGRespectsMaxIter(t *testing.T) {
	a, b, _ := poissonSystem(t, 30)
	x := make([]float64, a.Rows)
	stats, _ := solve.CG[float64](csrOp[float64]{a}, nil, b, x, 1e-14, 3)
	if stats.Converged {
		t.Error("converged in 3 iterations at 1e-14 on a 900-dof Poisson problem?")
	}
	if stats.Iterations != 3 {
		t.Errorf("iterations = %d, want 3", stats.Iterations)
	}
}
