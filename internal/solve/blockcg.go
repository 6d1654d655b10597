package solve

import (
	"fmt"
	"math"

	"smat/internal/matrix"
)

// BlockStats reports a BlockCG run: RelResidual holds the per-RHS relative
// residual at exit and Converged is the conjunction over all columns.
type BlockStats struct {
	Iterations  int
	RelResidual []float64
	Converged   bool
}

// BlockCG solves A·X = B for k right-hand sides at once, refining xb in
// place. bb and xb are interleaved block vectors in the MulVecBatch layout
// (element i of RHS j at index i*k+j). Each column runs its own CG
// recurrence — per-column α, β, and convergence — but all k matrix
// products per iteration collapse into a single MulVecBatch call, so a
// tuned operator serves them through its register-tiled SpMM kernel. That
// is the entire point: the per-iteration SpMV cost drops by the batched
// path's per-vector speedup while the iteration counts stay exactly those
// of k independent CG solves.
//
// Columns that converge are frozen (their α and β pin to zero, so their
// solution and residual stop moving) but keep riding the shared SpMM until
// the last column finishes. A zero column of B yields a zero solution
// column. Breakdown on any active column — pᵀAp ≤ 0 or NaN ρ — aborts the
// whole block with an error wrapping ErrBreakdown.
func BlockCG[T matrix.Float](a BatchOperator[T], bb, xb []T, k int, tol float64, maxIter int) (BlockStats, error) {
	if k <= 0 {
		return BlockStats{}, fmt.Errorf("solve: BlockCG block width %d, want ≥ 1", k)
	}
	if len(bb) != len(xb) || len(bb)%k != 0 {
		return BlockStats{}, fmt.Errorf("solve: BlockCG size mismatch: len(bb)=%d len(xb)=%d k=%d", len(bb), len(xb), k)
	}
	nk := len(bb)
	r := make([]T, nk)
	p := make([]T, nk)
	ap := make([]T, nk)
	normB := make([]float64, k)
	rz := make([]float64, k)
	dots := make([]float64, k)
	alpha := make([]T, k)
	beta := make([]T, k)
	frozen := make([]bool, k)
	stats := BlockStats{RelResidual: make([]float64, k)}

	// R = B − A·X. All per-column reductions run through blockDots — one
	// sweep for all k columns — because in the interleaved layout a single
	// strided dot already touches every cache line of the block.
	a.MulVecBatch(xb, ap, k)
	residual(bb, ap, r)
	blockDots(bb, bb, k, normB)
	for j := 0; j < k; j++ {
		normB[j] = math.Sqrt(normB[j])
		if normB[j] == 0 {
			// Zero RHS: the solution column is zero; clear it and its
			// residual so the shared recurrences never touch it again.
			for i := j; i < nk; i += k {
				xb[i], r[i] = 0, 0
			}
			frozen[j] = true
		}
	}
	blockDots(r, r, k, rz)
	copy(p, r)

	for stats.Iterations = 0; stats.Iterations < maxIter; stats.Iterations++ {
		if blockConverged(&stats, rz, normB, frozen, tol) {
			return stats, nil
		}
		a.MulVecBatch(p, ap, k)
		blockDots(p, ap, k, dots)
		for j := 0; j < k; j++ {
			if frozen[j] {
				alpha[j] = 0
				continue
			}
			pap := dots[j]
			if !(pap > 0) {
				return stats, fmt.Errorf("%w: pᵀAp = %g for RHS %d at iteration %d (operator not positive definite)", ErrBreakdown, pap, j, stats.Iterations)
			}
			alpha[j] = T(rz[j] / pap)
		}
		blockUpdate(alpha, p, ap, xb, r, k, dots)
		for j := 0; j < k; j++ {
			if frozen[j] {
				beta[j] = 0
				continue
			}
			rzNew := dots[j]
			if math.IsNaN(rzNew) {
				return stats, fmt.Errorf("%w: ρ is NaN for RHS %d at iteration %d", ErrBreakdown, j, stats.Iterations)
			}
			beta[j] = T(rzNew / rz[j])
			rz[j] = rzNew
		}
		blockPUpdate(beta, r, p, k)
	}
	blockConverged(&stats, rz, normB, frozen, tol)
	return stats, nil
}

// blockConverged refreshes the per-column relative residuals (rz holds
// ‖r·ⱼ‖² for live columns), freezes newly converged columns, and reports
// whether every column is done.
func blockConverged(stats *BlockStats, rz, normB []float64, frozen []bool, tol float64) bool {
	all := true
	for j := range rz {
		if frozen[j] {
			continue
		}
		stats.RelResidual[j] = math.Sqrt(rz[j]) / normB[j]
		if stats.RelResidual[j] <= tol {
			frozen[j] = true
		} else {
			all = false
		}
	}
	stats.Converged = all
	return all
}

// blockUpdate applies the fused per-column CG updates across the
// interleaved block — X += α∘P, R −= α∘AP (∘ broadcasting down each
// column) — and accumulates the updated residual norms ‖r·ⱼ‖² into rz on
// the same sweep, while the fresh r values are still in registers: the
// separate reduction pass a textbook recurrence would make costs a full
// traversal of the block per iteration.
//
//smat:hotpath
func blockUpdate[T matrix.Float](alpha []T, p, ap, xb, r []T, k int, rz []float64) {
	n := len(xb)
	p, ap, r = p[:n], ap[:n], r[:n]
	if k == 8 && len(alpha) >= 8 && len(rz) >= 8 {
		// Register-tile width: the eight coefficients and accumulators live
		// in locals for the whole sweep instead of round-tripping memory.
		a0, a1, a2, a3 := alpha[0], alpha[1], alpha[2], alpha[3]
		a4, a5, a6, a7 := alpha[4], alpha[5], alpha[6], alpha[7]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for i := 0; i+8 <= n; i += 8 {
			xb[i] += a0 * p[i]
			v0 := r[i] - a0*ap[i]
			r[i] = v0
			s0 += float64(v0) * float64(v0)
			xb[i+1] += a1 * p[i+1]
			v1 := r[i+1] - a1*ap[i+1]
			r[i+1] = v1
			s1 += float64(v1) * float64(v1)
			xb[i+2] += a2 * p[i+2]
			v2 := r[i+2] - a2*ap[i+2]
			r[i+2] = v2
			s2 += float64(v2) * float64(v2)
			xb[i+3] += a3 * p[i+3]
			v3 := r[i+3] - a3*ap[i+3]
			r[i+3] = v3
			s3 += float64(v3) * float64(v3)
			xb[i+4] += a4 * p[i+4]
			v4 := r[i+4] - a4*ap[i+4]
			r[i+4] = v4
			s4 += float64(v4) * float64(v4)
			xb[i+5] += a5 * p[i+5]
			v5 := r[i+5] - a5*ap[i+5]
			r[i+5] = v5
			s5 += float64(v5) * float64(v5)
			xb[i+6] += a6 * p[i+6]
			v6 := r[i+6] - a6*ap[i+6]
			r[i+6] = v6
			s6 += float64(v6) * float64(v6)
			xb[i+7] += a7 * p[i+7]
			v7 := r[i+7] - a7*ap[i+7]
			r[i+7] = v7
			s7 += float64(v7) * float64(v7)
		}
		rz[0], rz[1], rz[2], rz[3] = s0, s1, s2, s3
		rz[4], rz[5], rz[6], rz[7] = s4, s5, s6, s7
		return
	}
	for j := 0; j < k; j++ {
		rz[j] = 0
	}
	for i := 0; i < n; i += k {
		for j := 0; j < k; j++ {
			a := alpha[j]
			xb[i+j] += a * p[i+j]
			v := r[i+j] - a*ap[i+j]
			r[i+j] = v
			rz[j] += float64(v) * float64(v)
		}
	}
}

// blockPUpdate computes P = R + β∘P down each column of the interleaved
// block.
//
//smat:hotpath
func blockPUpdate[T matrix.Float](beta []T, r, p []T, k int) {
	n := len(p)
	r = r[:n]
	if k == 8 && len(beta) >= 8 {
		b0, b1, b2, b3 := beta[0], beta[1], beta[2], beta[3]
		b4, b5, b6, b7 := beta[4], beta[5], beta[6], beta[7]
		for i := 0; i+8 <= n; i += 8 {
			p[i] = r[i] + b0*p[i]
			p[i+1] = r[i+1] + b1*p[i+1]
			p[i+2] = r[i+2] + b2*p[i+2]
			p[i+3] = r[i+3] + b3*p[i+3]
			p[i+4] = r[i+4] + b4*p[i+4]
			p[i+5] = r[i+5] + b5*p[i+5]
			p[i+6] = r[i+6] + b6*p[i+6]
			p[i+7] = r[i+7] + b7*p[i+7]
		}
		return
	}
	for i := 0; i < n; i += k {
		for j := 0; j < k; j++ {
			p[i+j] = r[i+j] + beta[j]*p[i+j]
		}
	}
}
