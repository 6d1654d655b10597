package amg

import (
	"fmt"
	"math"

	"smat/internal/matrix"
	"smat/internal/solve"
)

// denseLU is the coarsest-level direct solver: LU with partial pivoting.
// ytmp is the forward-substitution scratch, hoisted out of solve so the
// per-cycle coarse solve allocates nothing.
type denseLU[T matrix.Float] struct {
	n    int
	lu   []float64
	perm []int
	ytmp []float64
}

func factorDense[T matrix.Float](a *matrix.CSR[T]) (*denseLU[T], error) {
	n := a.Rows
	f := &denseLU[T]{n: n, lu: make([]float64, n*n), perm: make([]int, n), ytmp: make([]float64, n)}
	for r := 0; r < n; r++ {
		f.perm[r] = r
		for jj := a.RowPtr[r]; jj < a.RowPtr[r+1]; jj++ {
			f.lu[r*n+a.ColIdx[jj]] = float64(a.Vals[jj])
		}
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, pv := k, math.Abs(f.lu[f.perm[k]*n+k])
		for r := k + 1; r < n; r++ {
			if v := math.Abs(f.lu[f.perm[r]*n+k]); v > pv {
				p, pv = r, v
			}
		}
		if pv == 0 {
			return nil, fmt.Errorf("amg: singular coarse operator at column %d", k)
		}
		f.perm[k], f.perm[p] = f.perm[p], f.perm[k]
		pk := f.perm[k]
		piv := f.lu[pk*n+k]
		for r := k + 1; r < n; r++ {
			pr := f.perm[r]
			m := f.lu[pr*n+k] / piv
			f.lu[pr*n+k] = m
			if m == 0 {
				continue
			}
			for c := k + 1; c < n; c++ {
				f.lu[pr*n+c] -= m * f.lu[pk*n+c]
			}
		}
	}
	return f, nil
}

// solve computes x = A⁻¹ b in place.
func (f *denseLU[T]) solve(b, x []T) {
	n := f.n
	ytmp := f.ytmp
	// Forward substitution (unit lower triangular, permuted rows).
	for i := 0; i < n; i++ {
		v := float64(b[f.perm[i]])
		for k := 0; k < i; k++ {
			v -= f.lu[f.perm[i]*n+k] * ytmp[k]
		}
		ytmp[i] = v
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		v := ytmp[i]
		for k := i + 1; k < n; k++ {
			v -= f.lu[f.perm[i]*n+k] * float64(x[k])
		}
		x[i] = T(v / f.lu[f.perm[i]*n+i])
	}
}

// smooth runs one weighted-Jacobi sweep on A x = b at this level:
// x += ω D⁻¹ (b − A x), one SpMV per sweep, so the solve phase is
// SpMV-dominated (the property the paper exploits).
func (lvl *Level[T]) smooth(b, x []T) {
	lvl.aOp.MulVec(x, lvl.tmp)
	lvl.vec.Jacobi(T(omega), b, lvl.tmp, lvl.Diag, x)
}

// vcycle runs one V-cycle starting at level li, solving A x = b with the
// current x as the initial guess.
func (h *Hierarchy[T]) vcycle(li int, b, x []T) {
	lvl := h.Levels[li]
	if lvl.P == nil {
		h.lu.solve(b, x)
		return
	}
	for s := 0; s < nu1; s++ {
		lvl.smooth(b, x)
	}
	// Residual r = b − A x.
	lvl.aOp.MulVec(x, lvl.tmp)
	lvl.vec.Residual(b, lvl.tmp, lvl.tmp)
	// Restrict and recurse.
	next := h.Levels[li+1]
	lvl.rOp.MulVec(lvl.tmp, next.b)
	clear(next.x)
	h.vcycle(li+1, next.b, next.x)
	// Prolong and correct.
	lvl.pOp.MulVec(next.x, lvl.tmp)
	lvl.vec.Axpy(1, lvl.tmp, x)
	for s := 0; s < nu2; s++ {
		lvl.smooth(b, x)
	}
}

// VCycle applies one V-cycle to A x = b, refining x in place.
func (h *Hierarchy[T]) VCycle(b, x []T) { h.vcycle(0, b, x) }

// SolveStats reports a Solve or SolvePCG run.
type SolveStats = solve.Stats

// Solve iterates V-cycles until ‖b − A x‖₂ / ‖b‖₂ ≤ tol or maxIter cycles,
// refining x in place.
func (h *Hierarchy[T]) Solve(b, x []T, tol float64, maxIter int) SolveStats {
	lvl := h.Levels[0]
	normB := solve.Norm2(b)
	if normB == 0 {
		clear(x)
		return SolveStats{Converged: true}
	}
	var stats SolveStats
	for stats.Iterations = 0; stats.Iterations < maxIter; {
		h.VCycle(b, x)
		stats.Iterations++
		lvl.aOp.MulVec(x, lvl.tmp)
		res := lvl.vec.Residual(b, lvl.tmp, lvl.tmp)
		stats.RelResidual = math.Sqrt(res) / normB
		if stats.RelResidual <= tol {
			stats.Converged = true
			break
		}
	}
	return stats
}
