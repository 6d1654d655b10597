package amg

import "smat/internal/solve"

// Apply runs one V-cycle from a zero initial guess: the standard way AMG
// serves as a preconditioner (the paper's Section 7.1: "AMG is used as a
// preconditioner such as conjugate gradients"). It makes the hierarchy a
// solve.Preconditioner.
func (h *Hierarchy[T]) Apply(r, z []T) {
	clear(z)
	h.VCycle(r, z)
}

// SolvePCG solves A x = b with CG preconditioned by this hierarchy, using
// the hierarchy's (possibly SMAT-bound) operator for the fine-level SpMV.
// The CG work vectors live on the hierarchy, so repeated solves through one
// hierarchy allocate only on the first call. A breakdown — the operator not
// SPD along a search direction — surfaces as an early, non-converged return.
func (h *Hierarchy[T]) SolvePCG(b, x []T, tol float64, maxIter int) SolveStats {
	stats, _ := solve.CGWith[T](&h.cgws, h.Levels[0].aOp, h, b, x, tol, maxIter)
	return stats
}
