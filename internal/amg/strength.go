// Package amg implements an algebraic multigrid solver in the style of
// Hypre's BoomerAMG, the application the paper evaluates SMAT inside
// (Section 7.4): strength-of-connection graphs, Ruge–Stüben and CLJP
// coarsening, direct interpolation, Galerkin coarse operators via sparse
// triple products, and a V-cycle with weighted-Jacobi smoothing. Every SpMV
// in the solve phase goes through a pluggable operator interface, so
// SMAT-tuned kernels drop in per level exactly as the paper drops SMAT into
// Hypre.
package amg

import "smat/internal/matrix"

// strengthGraph holds, per point, the points it strongly depends on (S) and
// the transpose relation (points that strongly depend on it, ST), both in
// CSR-like adjacency form.
type strengthGraph struct {
	n            int
	sPtr, sIdx   []int // i strongly depends on sIdx[sPtr[i]:sPtr[i+1]]
	stPtr, stIdx []int // points strongly depending on i
}

// buildStrength classifies connections with the classical criterion for
// essentially-negative-coupled problems: j strongly influences i when
// -a_ij ≥ theta · max_{k≠i}(-a_ik). Positive off-diagonal couplings are
// never strong.
func buildStrength[T matrix.Float](a *matrix.CSR[T], theta float64) *strengthGraph {
	n := a.Rows
	g := &strengthGraph{n: n, sPtr: make([]int, n+1)}
	// Pass 1: per-row threshold and strong-edge count.
	maxNeg := make([]float64, n)
	for i := 0; i < n; i++ {
		m := 0.0
		for jj := a.RowPtr[i]; jj < a.RowPtr[i+1]; jj++ {
			if a.ColIdx[jj] == i {
				continue
			}
			if v := -float64(a.Vals[jj]); v > m {
				m = v
			}
		}
		maxNeg[i] = m
	}
	for i := 0; i < n; i++ {
		cnt := 0
		if maxNeg[i] > 0 {
			for jj := a.RowPtr[i]; jj < a.RowPtr[i+1]; jj++ {
				j := a.ColIdx[jj]
				if j != i && -float64(a.Vals[jj]) >= theta*maxNeg[i] {
					cnt++
				}
			}
		}
		g.sPtr[i+1] = g.sPtr[i] + cnt
	}
	g.sIdx = make([]int, g.sPtr[n])
	pos := append([]int(nil), g.sPtr[:n]...)
	for i := 0; i < n; i++ {
		if maxNeg[i] <= 0 {
			continue
		}
		for jj := a.RowPtr[i]; jj < a.RowPtr[i+1]; jj++ {
			j := a.ColIdx[jj]
			if j != i && -float64(a.Vals[jj]) >= theta*maxNeg[i] {
				g.sIdx[pos[i]] = j
				pos[i]++
			}
		}
	}
	// Transpose.
	g.stPtr = make([]int, n+1)
	for _, j := range g.sIdx {
		g.stPtr[j+1]++
	}
	for i := 0; i < n; i++ {
		g.stPtr[i+1] += g.stPtr[i]
	}
	g.stIdx = make([]int, len(g.sIdx))
	tpos := append([]int(nil), g.stPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := g.sPtr[i]; k < g.sPtr[i+1]; k++ {
			j := g.sIdx[k]
			g.stIdx[tpos[j]] = i
			tpos[j]++
		}
	}
	return g
}

// strongDeps returns the points i strongly depends on.
func (g *strengthGraph) strongDeps(i int) []int { return g.sIdx[g.sPtr[i]:g.sPtr[i+1]] }

// strongInfluenced returns the points that strongly depend on i.
func (g *strengthGraph) strongInfluenced(i int) []int { return g.stIdx[g.stPtr[i]:g.stPtr[i+1]] }
