package oracle

import (
	"fmt"
	"math"
	"slices"

	"smat/internal/amg"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/mining"
	"smat/internal/solve"
)

// solveTolOf returns the convergence tolerance the differential solver
// suite requests per element type: deep enough to be a real solve, shallow
// enough for float32 to reach it.
func solveTolOf[T matrix.Float]() float64 {
	if epsOf[T]() == 0x1p-23 {
		return 1e-4
	}
	return 1e-9
}

// serialOp is the trusted reference operator: the plain serial CSR product,
// the same arithmetic Check's reference path uses.
type serialOp[T matrix.Float] struct{ m *matrix.CSR[T] }

func (o serialOp[T]) MulVec(x, y []T) {
	m := o.m
	for r := 0; r < m.Rows; r++ {
		var s T
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			s += m.Vals[jj] * x[m.ColIdx[jj]]
		}
		y[r] = s
	}
}

func (o serialOp[T]) MulVecBatch(xb, yb []T, k int) {
	m := o.m
	for r := 0; r < m.Rows; r++ {
		base := r * k
		for j := 0; j < k; j++ {
			yb[base+j] = 0
		}
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			c, v := m.ColIdx[jj], m.Vals[jj]
			for j := 0; j < k; j++ {
				yb[base+j] += v * xb[c*k+j]
			}
		}
	}
}

// CheckSolvers runs the residual-checked differential solver suite: every
// solver in internal/solve, and AMG-preconditioned CG from internal/amg,
// driven by tuned operators (tuned with an iteration hint, the long-solve
// path) against the same solve driven by the trusted serial CSR reference,
// at every thread count in opt.Threads. The systems are larger than the
// kernels' serial cutoff, so above one thread what is graded is the pooled
// path: products and the solvers' vector phases on the tuner's workers.
//
// A solver run only counts if it converges, and no solver is trusted to
// grade itself: every solution — tuned or reference, single or block — is
// re-checked by recomputing ‖b − A·x‖₂/‖b‖₂ from scratch in float64. The
// tuned and reference solutions must also agree to the conditioning-scaled
// bound, so a tuned kernel that converged to the wrong answer cannot hide
// behind its own residual. And a tuned solve must repeat: a second run at
// the same thread count returns the same bits and the same statistics,
// because the pooled reductions sum their chunks in chunk order.
func CheckSolvers[T matrix.Float](opt Options) error {
	opt = opt.withDefaults()
	tol := solveTolOf[T]()

	// SPD system with a known generator: 3D 7-point Laplacian, 9261 unknowns
	// (condition number ≈ 200: float32 can reach its tolerance).
	a := gen.Laplacian3D7pt[T](21, 21, 21)
	n := a.Rows
	b := make([]T, n)
	g := lcg{s: 40}
	for i := range b {
		b[i] = T(val(g.intn(16)))
	}

	// Nonsymmetric convection-diffusion chain for BiCGSTAB.
	ns := convectionDiffusion[T](9000)
	bns := make([]T, ns.Rows)
	for i := range bns {
		bns[i] = T(val(g.intn(16)))
	}

	for _, th := range opt.Threads {
		if err := checkSolversAtThreads(a, ns, b, bns, th, tol, opt); err != nil {
			return err
		}
	}
	return nil
}

// solverCase is one tuned-versus-reference comparison: both closures solve
// a·x = b into the (zeroed) vector they are handed.
type solverCase[T matrix.Float] struct {
	what             string
	a                *matrix.CSR[T]
	b                []T
	tuned, reference func(x []T) (solve.Stats, error)
}

// check runs the case: tuned and reference solves converge, pass the
// independent residual check and agree; the tuned solve repeats bit for bit.
func (c solverCase[T]) check(th int, tol float64) error {
	xT, xR, again := make([]T, len(c.b)), make([]T, len(c.b)), make([]T, len(c.b))
	st, err := c.tuned(xT)
	if err != nil || !st.Converged {
		return fmt.Errorf("oracle: solvers at %d threads: tuned %s stats %+v err %v", th, c.what, st, err)
	}
	sr, err := c.reference(xR)
	if err != nil || !sr.Converged {
		return fmt.Errorf("oracle: solvers at %d threads: reference %s stats %+v err %v", th, c.what, sr, err)
	}
	if err := residualCheck(c.a, c.b, xT, tol, "tuned "+c.what, th); err != nil {
		return err
	}
	if err := residualCheck(c.a, c.b, xR, tol, "reference "+c.what, th); err != nil {
		return err
	}
	if err := solutionsAgree(xT, xR, tol, c.what, th); err != nil {
		return err
	}
	if st2, err := c.tuned(again); err != nil || st2 != st || !slices.Equal(again, xT) {
		return fmt.Errorf("oracle: solvers at %d threads: tuned %s does not repeat: stats %+v then %+v (err %v)", th, c.what, st, st2, err)
	}
	return nil
}

func checkSolversAtThreads[T matrix.Float](a, ns *matrix.CSR[T], b, bns []T, th int, tol float64, opt Options) error {
	const maxIter = 4000
	model := autotune.NewModel(0.5, opt.MaxFill, autotune.ModelClass{
		Threads: th,
		Kernels: map[string]string{},
		Ruleset: &mining.Ruleset{Default: int(matrix.FormatCSR)},
	})
	tuner := autotune.New[T](model, autotune.Config{Threads: th})
	defer tuner.Close()
	// The iteration hint is the long-solve contract: solvers announce their
	// budget so the tuner may amortize a conversion across it.
	tune := func(m *matrix.CSR[T]) (*autotune.Operator[T], error) {
		op, _, err := tuner.TuneOpts(m, autotune.TuneOptions{Iterations: maxIter})
		if err != nil {
			return nil, fmt.Errorf("oracle: solvers at %d threads: tune: %w", th, err)
		}
		return op, nil
	}
	op, err := tune(a)
	if err != nil {
		return err
	}
	opNS, err := tune(ns)
	if err != nil {
		return err
	}
	h, err := amg.SetupPooled(a, amg.Options{}, tuner.Pool())
	if err != nil {
		return fmt.Errorf("oracle: solvers at %d threads: amg setup: %w", th, err)
	}
	if err := h.Bind(func(m *matrix.CSR[T]) (amg.SpMV[T], error) { return tune(m) }); err != nil {
		return err
	}

	referenceCG := func(x []T) (solve.Stats, error) { return solve.CG[T](serialOp[T]{a}, nil, b, x, tol, maxIter) }
	cases := []solverCase[T]{
		{"CG", a, b,
			func(x []T) (solve.Stats, error) { return solve.CG[T](op, nil, b, x, tol, maxIter) },
			referenceCG},
		{"BiCGSTAB", ns, bns,
			func(x []T) (solve.Stats, error) { return solve.BiCGSTAB[T](opNS, nil, bns, x, tol, maxIter) },
			func(x []T) (solve.Stats, error) { return solve.BiCGSTAB[T](serialOp[T]{ns}, nil, bns, x, tol, maxIter) }},
		{"AMG-PCG", a, b,
			func(x []T) (solve.Stats, error) { return solve.Stats(h.SolvePCG(b, x, tol, maxIter)), nil },
			referenceCG},
	}
	for _, c := range cases {
		if err := c.check(th, tol); err != nil {
			return err
		}
	}
	// What was graded above one thread must be the pooled path: a CG
	// iteration is the product plus three vector phases, all dispatched.
	if tuner.Threads() > 1 {
		before := tuner.Stats().Pool.Pooled
		st, _ := solve.CG[T](op, nil, b, make([]T, len(b)), tol, maxIter)
		if got := tuner.Stats().Pool.Pooled - before; got < 3*uint64(st.Iterations) {
			return fmt.Errorf("oracle: solvers at %d threads: %d pooled dispatches in %d CG iterations: the vector phases did not run on the pool", th, got, st.Iterations)
		}
	}

	// Block CG through the tuned batched path vs k independent reference
	// CG solves, column by column.
	const k = 4
	n := len(b)
	bb := make([]T, n*k)
	g := lcg{s: 77}
	for i := range bb {
		bb[i] = T(val(g.intn(16)))
	}
	xb := make([]T, n*k)
	bst, err := solve.BlockCG[T](op, bb, xb, k, tol, maxIter)
	if err != nil || !bst.Converged {
		return fmt.Errorf("oracle: solvers at %d threads: tuned BlockCG stats %+v err %v", th, bst, err)
	}
	col := make([]T, n)
	bcol := make([]T, n)
	for j := 0; j < k; j++ {
		for i := 0; i < n; i++ {
			bcol[i] = bb[i*k+j]
		}
		clear(col)
		sr, err := solve.CG[T](serialOp[T]{a}, nil, bcol, col, tol, maxIter)
		if err != nil || !sr.Converged {
			return fmt.Errorf("oracle: solvers at %d threads: BlockCG reference column %d stats %+v err %v", th, j, sr, err)
		}
		xcol := make([]T, n)
		for i := 0; i < n; i++ {
			xcol[i] = xb[i*k+j]
		}
		if err := residualCheck(a, bcol, xcol, tol, fmt.Sprintf("tuned BlockCG column %d", j), th); err != nil {
			return err
		}
		if err := solutionsAgree(xcol, col, tol, fmt.Sprintf("BlockCG column %d", j), th); err != nil {
			return err
		}
	}
	return nil
}

// residualCheck recomputes ‖b − A·x‖₂/‖b‖₂ from scratch in float64 — no
// solver state, no tuned kernel — and requires it within a small slack of
// the requested tolerance (the float64 recomputation of a T-precision
// residual can sit slightly above it).
func residualCheck[T matrix.Float](a *matrix.CSR[T], b, x []T, tol float64, what string, th int) error {
	var res, nb float64
	for r := 0; r < a.Rows; r++ {
		var s float64
		for jj := a.RowPtr[r]; jj < a.RowPtr[r+1]; jj++ {
			s += float64(a.Vals[jj]) * float64(x[a.ColIdx[jj]])
		}
		d := float64(b[r]) - s
		res += d * d
		nb += float64(b[r]) * float64(b[r])
	}
	rel := math.Sqrt(res) / math.Sqrt(nb)
	if rel > 4*tol {
		return fmt.Errorf("oracle: solvers at %d threads: %s: independent residual %g exceeds 4·tol %g", th, what, rel, 4*tol)
	}
	return nil
}

// solutionsAgree bounds the tuned-vs-reference solution gap: both residuals
// are ≤ tol, so the solutions may differ by at most the conditioning
// amplification, generously bounded here relative to the solution scale.
func solutionsAgree[T matrix.Float](got, want []T, tol float64, what string, th int) error {
	var d2, w2 float64
	for i := range got {
		d := float64(got[i]) - float64(want[i])
		d2 += d * d
		w2 += float64(want[i]) * float64(want[i])
	}
	if math.Sqrt(d2) > 1e4*tol*(1+math.Sqrt(w2)) {
		return fmt.Errorf("oracle: solvers at %d threads: %s: tuned and reference solutions differ by %g (scale %g)",
			th, what, math.Sqrt(d2), math.Sqrt(w2))
	}
	return nil
}

// convectionDiffusion builds the nonsymmetric 1D convection-diffusion
// operator the BiCGSTAB differential runs on.
func convectionDiffusion[T matrix.Float](n int) *matrix.CSR[T] {
	var ts []matrix.Triple[T]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[T]{Row: i, Col: i, Val: 2.5})
		if i > 0 {
			ts = append(ts, matrix.Triple[T]{Row: i, Col: i - 1, Val: -1.4})
		}
		if i+1 < n {
			ts = append(ts, matrix.Triple[T]{Row: i, Col: i + 1, Val: -0.6})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err) // structurally impossible: indices are in range by construction
	}
	return m
}
