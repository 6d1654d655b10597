package solve

import (
	"fmt"
	"math"

	"smat/internal/matrix"
)

// BiCGSTAB solves the (possibly nonsymmetric) system A·x = b with the
// stabilised bi-conjugate gradient method, refining x in place. m may be
// nil. Convergence is ‖r‖₂/‖b‖₂ ≤ tol; the half-step residual s is also
// checked, so a solve can finish mid-iteration. A zero b short-circuits to
// x = 0; maxIter = 0 evaluates the initial guess only.
//
// Breakdown — ρ = ⟨r̂₀, r⟩ vanished, ⟨r̂₀, A·p̂⟩ vanished, or ω's
// denominator ⟨t, t⟩ = 0 while the residual is still above tolerance —
// returns the stats so far and an error wrapping ErrBreakdown.
func BiCGSTAB[T matrix.Float](a Operator[T], m Preconditioner[T], b, x []T, tol float64, maxIter int) (Stats, error) {
	var ws CGScratch[T]
	return bicgstabWith(&ws, a, m, b, x, tol, maxIter)
}

// bicgstabWith is BiCGSTAB over a caller-held scratch. Its vector work is
// six fused phases per iteration on the backend CG uses: ⟨r̂₀, v⟩; s with
// ‖s‖²; ⟨t, t⟩ with ⟨t, s⟩; the two-term solution update; r with ‖r‖² and
// ⟨r̂₀, r⟩; the direction.
func bicgstabWith[T matrix.Float](ws *CGScratch[T], a Operator[T], m Preconditioner[T], b, x []T, tol float64, maxIter int) (Stats, error) {
	n := len(b)
	if len(x) != n {
		return Stats{}, fmt.Errorf("solve: BiCGSTAB size mismatch: len(b)=%d len(x)=%d", n, len(x))
	}
	ws.reserve(a, n, 8)
	vec := &ws.vec
	r, rhat, p, v := ws.work(0, n), ws.work(1, n), ws.work(2, n), ws.work(3, n)
	s, t := ws.work(4, n), ws.work(5, n)
	phat, shat := ws.work(6, n), ws.work(7, n) // preconditioned p and s (unused when m == nil)

	normB := math.Sqrt(vec.dot(b, b))
	if normB == 0 {
		clear(x)
		return Stats{Converged: true}, nil
	}
	// r = b − A·x; r̂₀ = p = r, so ρ = ⟨r̂₀, r⟩ starts as ‖r‖².
	a.MulVec(x, v)
	rr := vec.Residual(b, v, r)
	copy(rhat, r)
	copy(p, r)
	rho := rr

	var stats Stats
	for stats.Iterations = 0; stats.Iterations < maxIter; stats.Iterations++ {
		stats.RelResidual = math.Sqrt(rr) / normB
		if stats.RelResidual <= tol {
			stats.Converged = true
			return stats, nil
		}
		if rho == 0 || math.IsNaN(rho) {
			return stats, fmt.Errorf("%w: ρ = %g at iteration %d", ErrBreakdown, rho, stats.Iterations)
		}
		ph := applyPrec(m, p, phat)
		a.MulVec(ph, v)
		rv := vec.dot(rhat, v)
		if rv == 0 || math.IsNaN(rv) {
			return stats, fmt.Errorf("%w: ⟨r̂₀, A·p̂⟩ = %g at iteration %d", ErrBreakdown, rv, stats.Iterations)
		}
		alpha := rho / rv
		ss := vec.residual(r, T(alpha), v, s) // s = r − α·v
		if rel := math.Sqrt(ss) / normB; rel <= tol {
			vec.Axpy(T(alpha), ph, x)
			stats.Iterations++
			stats.RelResidual = rel
			stats.Converged = true
			return stats, nil
		}
		sh := applyPrec(m, s, shat)
		a.MulVec(sh, t)
		tt, ts := vec.dot2(t, t, s)
		if tt == 0 || math.IsNaN(tt) {
			return stats, fmt.Errorf("%w: ⟨t, t⟩ = %g at iteration %d", ErrBreakdown, tt, stats.Iterations)
		}
		omega := ts / tt
		if omega == 0 || math.IsNaN(omega) {
			return stats, fmt.Errorf("%w: ω = %g at iteration %d", ErrBreakdown, omega, stats.Iterations)
		}
		vec.axpy2(T(alpha), ph, T(omega), sh, x)
		var rhoNew float64
		rr, rhoNew = vec.residualDot(s, T(omega), t, r, rhat) // r = s − ω·t
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		vec.direction(r, T(beta), T(omega), v, p) // p = r + β·(p − ω·v)
	}
	stats.RelResidual = math.Sqrt(rr) / normB
	stats.Converged = stats.RelResidual <= tol
	return stats, nil
}
