package amg

import (
	"math"
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

func lap1D(n int) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: 2})
		if i > 0 {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i + 1, Val: -1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func TestStrengthGraphTridiagonal(t *testing.T) {
	a := lap1D(5)
	g := buildStrength(a, 0.25)
	// Every off-diagonal -1 is strong (max off-diag magnitude is 1).
	if got := g.strongDeps(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("deps(0) = %v, want [1]", got)
	}
	if got := g.strongDeps(2); len(got) != 2 {
		t.Errorf("deps(2) = %v, want two neighbours", got)
	}
	if got := g.strongInfluenced(2); len(got) != 2 {
		t.Errorf("influenced(2) = %v, want two neighbours", got)
	}
}

func TestStrengthGraphThreshold(t *testing.T) {
	// Row 0: strong -10 to col 1, weak -1 to col 2.
	m, err := matrix.FromTriples(3, 3, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 12}, {Row: 0, Col: 1, Val: -10}, {Row: 0, Col: 2, Val: -1},
		{Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := buildStrength(m, 0.25)
	deps := g.strongDeps(0)
	if len(deps) != 1 || deps[0] != 1 {
		t.Errorf("deps(0) = %v, want [1] (weak link filtered)", deps)
	}
}

func TestStrengthIgnoresPositiveCouplings(t *testing.T) {
	m, err := matrix.FromTriples(2, 2, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: 5}, // positive coupling
		{Row: 1, Col: 1, Val: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := buildStrength(m, 0.25)
	if len(g.strongDeps(0)) != 0 {
		t.Error("positive coupling classified as strong")
	}
}

func validSplitting(t *testing.T, g *strengthGraph, split []int8) {
	t.Helper()
	nc := 0
	for i, s := range split {
		switch s {
		case cPoint:
			nc++
		case fPoint:
			if len(g.strongDeps(i)) == 0 {
				continue // isolated
			}
			hasC := false
			for _, j := range g.strongDeps(i) {
				if split[j] == cPoint {
					hasC = true
					break
				}
			}
			if !hasC {
				t.Errorf("F-point %d has no strong C-neighbour", i)
			}
		default:
			t.Errorf("point %d unassigned", i)
		}
	}
	if nc == 0 || nc == len(split) {
		t.Errorf("degenerate splitting: %d of %d C-points", nc, len(split))
	}
}

func TestCoarsenRS1D(t *testing.T) {
	a := lap1D(101)
	g := buildStrength(a, 0.25)
	split := coarsenRS(g)
	enforceInterpolatable(g, split)
	validSplitting(t, g, split)
	nc := 0
	for _, s := range split {
		if s == cPoint {
			nc++
		}
	}
	// 1D Laplacian should coarsen by roughly half.
	if nc < 25 || nc > 75 {
		t.Errorf("RS selected %d of 101 C-points, want ≈50", nc)
	}
}

func TestCoarsenCLJP2D(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](20, 20)
	g := buildStrength(a, 0.25)
	split := coarsenCLJP(g, 7)
	enforceInterpolatable(g, split)
	validSplitting(t, g, split)
}

func TestCoarsenHandlesIsolatedPoints(t *testing.T) {
	// Diagonal matrix: no strong connections anywhere.
	m, err := matrix.FromTriples(5, 5, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 1},
		{Row: 3, Col: 3, Val: 1}, {Row: 4, Col: 4, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := buildStrength(m, 0.25)
	for _, split := range [][]int8{coarsenRS(g), coarsenCLJP(g, 3)} {
		for i, s := range split {
			if s == unassigned {
				t.Errorf("isolated point %d left unassigned", i)
			}
		}
	}
}

func TestInterpolation1DWeights(t *testing.T) {
	a := lap1D(7)
	g := buildStrength(a, 0.25)
	split := coarsenRS(g)
	enforceInterpolatable(g, split)
	p := buildInterpolation(a, g, split)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interior F-point rows of the zero-row-sum Laplacian must sum to 1
	// (constants are interpolated exactly).
	for i := 1; i < 6; i++ {
		if split[i] != fPoint {
			continue
		}
		sum := 0.0
		for jj := p.RowPtr[i]; jj < p.RowPtr[i+1]; jj++ {
			sum += p.Vals[jj]
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("interior F-row %d interpolation sum = %g, want 1", i, sum)
		}
	}
}

func TestDenseLUSolvesRandomSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := rng.NormFloat64()
			if i == j {
				v += float64(n) // diagonally dominant
			}
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: j, Val: v})
		}
	}
	a, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := factorDense(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.ToDense().MulVec(want, b)
	got := make([]float64, n)
	lu.solve(b, got)
	if !matrix.VecApproxEqual(got, want, 1e-9) {
		t.Error("LU solve wrong")
	}
}

func TestDenseLURejectsSingular(t *testing.T) {
	a, err := matrix.FromTriples(2, 2, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := factorDense(a); err == nil {
		t.Error("singular matrix factored")
	}
}

func TestSetupBuildsHierarchy(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](32, 32)
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Levels) < 2 {
		t.Fatalf("hierarchy has %d levels, want ≥2", len(h.Levels))
	}
	for i := 1; i < len(h.Levels); i++ {
		if h.Levels[i].A.Rows >= h.Levels[i-1].A.Rows {
			t.Errorf("level %d (%d rows) not coarser than level %d (%d rows)",
				i, h.Levels[i].A.Rows, i-1, h.Levels[i-1].A.Rows)
		}
	}
	if oc := h.OperatorComplexity(); oc < 1 || oc > 4 {
		t.Errorf("operator complexity %g outside sane range", oc)
	}
	// The Galerkin coarse operator of a symmetric problem stays symmetric.
	a1 := h.Levels[1].A
	if !a1.ApproxEqual(a1.Transpose(), 1e-9) {
		t.Error("coarse operator lost symmetry")
	}
}

func TestSetupRejectsNonSquare(t *testing.T) {
	m, err := matrix.FromTriples(2, 3, []matrix.Triple[float64]{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SetupPooled(m, Options{}, nil); err == nil {
		t.Error("non-square operator accepted")
	}
}

func solveTest(t *testing.T, opts Options) {
	t.Helper()
	a := gen.Laplacian2D5pt[float64](32, 32)
	h, err := SetupPooled(a, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, a.Rows)
	a.ToDense().MulVec(want, b)
	x := make([]float64, a.Rows)
	stats := h.Solve(b, x, 1e-8, 60)
	if !stats.Converged {
		t.Fatalf("did not converge: %d iters, relres %g (opts %+v)",
			stats.Iterations, stats.RelResidual, opts)
	}
	if stats.Iterations > 40 {
		t.Errorf("slow convergence: %d V-cycles", stats.Iterations)
	}
	if !matrix.VecApproxEqual(x, want, 1e-5) {
		t.Error("solution wrong")
	}
}

func TestSolvePoissonJacobiRS(t *testing.T) {
	solveTest(t, Options{Coarsening: RugeStueben})
}

func TestSolvePoissonJacobiCLJP(t *testing.T) {
	solveTest(t, Options{Coarsening: CLJP})
}

func TestSolve9ptAnd3D(t *testing.T) {
	for _, a := range []*matrix.CSR[float64]{
		gen.Laplacian2D9pt[float64](24, 24),
		gen.Laplacian3D7pt[float64](10, 10, 10),
	} {
		h, err := SetupPooled(a, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, a.Rows)
		stats := h.Solve(b, x, 1e-8, 80)
		if !stats.Converged {
			t.Errorf("%d-row problem did not converge (relres %g)", a.Rows, stats.RelResidual)
		}
	}
}

func TestSolveZeroRHS(t *testing.T) {
	a := lap1D(50)
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 50)
	for i := range x {
		x[i] = 1
	}
	stats := h.Solve(make([]float64, 50), x, 1e-10, 10)
	if !stats.Converged {
		t.Error("zero RHS did not converge")
	}
	for i, v := range x {
		if v != 0 {
			t.Fatalf("x[%d] = %g, want 0", i, v)
		}
	}
}

// countingOp wraps an SpMV and counts calls, to prove Bind is honoured.
type countingOp struct {
	inner SpMV[float64]
	calls *int
}

func (c countingOp) MulVec(x, y []float64) {
	*c.calls++
	c.inner.MulVec(x, y)
}

func TestBindReplacesOperators(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](16, 16)
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = h.Bind(func(m *matrix.CSR[float64]) (SpMV[float64], error) {
		return countingOp{inner: csrOp[float64]{m}, calls: &calls}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	h.VCycle(b, x)
	if calls == 0 {
		t.Fatal("bound operators never called")
	}
}

func TestSolveFloat32(t *testing.T) {
	a64 := gen.Laplacian2D5pt[float64](20, 20)
	var ts []matrix.Triple[float32]
	for r := 0; r < a64.Rows; r++ {
		for jj := a64.RowPtr[r]; jj < a64.RowPtr[r+1]; jj++ {
			ts = append(ts, matrix.Triple[float32]{Row: r, Col: a64.ColIdx[jj], Val: float32(a64.Vals[jj])})
		}
	}
	a, err := matrix.FromTriples(a64.Rows, a64.Cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float32, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float32, a.Rows)
	stats := h.Solve(b, x, 1e-4, 60)
	if !stats.Converged {
		t.Errorf("float32 solve did not converge (relres %g)", stats.RelResidual)
	}
}
