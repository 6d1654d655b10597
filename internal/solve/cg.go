package solve

import (
	"fmt"
	"math"

	"smat/internal/matrix"
)

// CGScratch is the reusable Krylov workspace: the vector backend and the
// solver's four n-vectors. A zero value is ready to use; reserve grows it on demand, so one scratch amortises
// across repeated solves of same-sized systems (the AMG hierarchy keeps one
// per hierarchy, making steady-state PCG allocation-free).
type CGScratch[T matrix.Float] struct {
	vec Vec[T]
	buf []T
}

// reserve binds the backend to a and sizes the workspace for k n-vectors,
// returned by work.
func (w *CGScratch[T]) reserve(a Operator[T], n, k int) {
	w.vec.Bind(a, n)
	if cap(w.buf) < n*k {
		w.buf = make([]T, n*k)
	}
	w.buf = w.buf[:n*k]
}

// work returns the i-th n-vector of the workspace.
func (w *CGScratch[T]) work(i, n int) []T { return w.buf[i*n : (i+1)*n : (i+1)*n] }

// CG solves the symmetric positive-definite system A·x = b with
// (optionally preconditioned) conjugate gradients, refining x in place
// from its current value. m may be nil for plain CG. Convergence is
// ‖b − A·x‖₂/‖b‖₂ ≤ tol, checked before each iteration; maxIter = 0 thus
// evaluates the initial guess and returns without touching the operator's
// Krylov space. A zero b short-circuits to x = 0.
//
// On breakdown — pᵀAp ≤ 0 (A not positive definite along the search
// direction), a vanished or NaN ρ — CG returns the stats so far and an
// error wrapping ErrBreakdown rather than iterating on poisoned vectors.
func CG[T matrix.Float](a Operator[T], m Preconditioner[T], b, x []T, tol float64, maxIter int) (Stats, error) {
	var ws CGScratch[T]
	return CGWith(&ws, a, m, b, x, tol, maxIter)
}

// CGWith is CG over a caller-held scratch, for allocation-free repeated
// solves. An operator that implements Pooled has the vector phases run on
// its workers; an iteration is then four dispatches — the product, ⟨p, Ap⟩,
// the fused update, the direction — with only scalar work on the caller in
// between, so the workers are still spinning when each one arrives.
func CGWith[T matrix.Float](ws *CGScratch[T], a Operator[T], m Preconditioner[T], b, x []T, tol float64, maxIter int) (Stats, error) {
	n := len(b)
	if len(x) != n {
		return Stats{}, fmt.Errorf("solve: CG size mismatch: len(b)=%d len(x)=%d", n, len(x))
	}
	ws.reserve(a, n, 4)
	v := &ws.vec
	r, z, p, ap := ws.work(0, n), ws.work(1, n), ws.work(2, n), ws.work(3, n)

	normB := math.Sqrt(v.dot(b, b))
	if normB == 0 {
		clear(x)
		return Stats{Converged: true}, nil
	}
	// r = b − A·x; rr is ⟨r, r⟩ from here on: the convergence test and,
	// without a preconditioner (z = r), ρ itself.
	a.MulVec(x, ap)
	rr := v.Residual(b, ap, r)
	rz := rr
	if m == nil {
		z = r
	} else {
		m.Apply(r, z)
		rz = v.dot(r, z)
	}
	copy(p, z)

	var stats Stats
	for stats.Iterations = 0; stats.Iterations < maxIter; stats.Iterations++ {
		stats.RelResidual = math.Sqrt(rr) / normB
		if stats.RelResidual <= tol {
			stats.Converged = true
			return stats, nil
		}
		a.MulVec(p, ap)
		pap := v.dot(p, ap)
		if !(pap > 0) { // catches ≤ 0 and NaN
			return stats, fmt.Errorf("%w: pᵀAp = %g at iteration %d (operator not positive definite)", ErrBreakdown, pap, stats.Iterations)
		}
		rr = v.cgUpdate(T(rz/pap), p, ap, x, r)
		rzNew := rr
		if m != nil {
			m.Apply(r, z)
			rzNew = v.dot(r, z)
		}
		if math.IsNaN(rzNew) {
			return stats, fmt.Errorf("%w: ρ is NaN at iteration %d", ErrBreakdown, stats.Iterations)
		}
		beta := rzNew / rz
		rz = rzNew
		v.xpay(z, T(beta), p)
	}
	stats.RelResidual = math.Sqrt(rr) / normB
	stats.Converged = stats.RelResidual <= tol
	return stats, nil
}
