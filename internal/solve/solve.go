// Package solve implements conjugate gradients, plain or preconditioned,
// over any SpMV operator.
//
// The solver is deliberately operator-agnostic: anything with MulVec(x, y)
// drives it, so the same code runs over a plain CSR product, an AMG level
// operator, or the tuned smat Operator. This is where the auto-tuner's
// per-matrix format and kernel choices compound: an iterative solve
// multiplies one matrix hundreds of times, so a few percent per SpMV is the
// difference the paper's Figure 11 measures on end-to-end workloads.
//
// The vector work between two products — inner products, updates, residuals
// — goes through one backend (Vec): fused sweeps that read each vector once
// per phase. An operator that also implements Pooled lends the backend its
// worker pool, and the sweeps run chunked on the workers that ran the
// product; any other operator gets the same sweeps as one chunk on the
// caller. Reductions sum their chunks in chunk order, so a solve is
// bit-repeatable at a given thread count.
//
// All inner products accumulate in float64 regardless of the element type,
// and the solver detects breakdown (an indefinite or singular operator,
// NaN poisoning) and returns ErrBreakdown instead of iterating on garbage.
package solve

import (
	"errors"

	"smat/internal/matrix"
)

// Operator is the minimal SpMV contract the solvers iterate:
// y = A·x. It is satisfied by *smat.Operator, *autotune.Operator, the AMG
// level operators, and any fixed-format reference product. An Operator that
// also implements Pooled (the first two do) has the solvers' vector phases
// run on its worker pool.
type Operator[T matrix.Float] interface {
	MulVec(x, y []T)
}

// Preconditioner applies z ≈ A⁻¹ r. The AMG hierarchy satisfies it with
// one V-cycle from a zero guess.
type Preconditioner[T matrix.Float] interface {
	Apply(r, z []T)
}

// ErrBreakdown reports that a Krylov recurrence lost its footing: a
// curvature pᵀAp ≤ 0 (the operator is not positive definite along the
// search direction), a vanished ρ, or NaN contamination.
// Solvers return it wrapped with the iteration context instead of
// NaN-looping to maxIter.
var ErrBreakdown = errors.New("solve: krylov breakdown")

// Stats reports a solver run. Iterations counts completed iterations (an
// immediately converged system reports zero), RelResidual is
// ‖b − A·x‖₂ / ‖b‖₂ at exit.
type Stats struct {
	Iterations  int
	RelResidual float64
	Converged   bool
}
