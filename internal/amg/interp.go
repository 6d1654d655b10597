package amg

import (
	"cmp"
	"math"
	"slices"

	"smat/internal/matrix"
)

// buildInterpolation constructs the classical direct-interpolation operator
// P (fine×coarse) from the splitting. C-point rows are identity; an F-point
// i interpolates from its strong C-neighbours C_i with weights
//
//	w_ij = -α_i · a_ij / ã_ii,   α_i = Σ_{k≠i, a_ik<0} a_ik / Σ_{j∈C_i} a_ij
//
// where positive off-diagonal couplings are lumped onto the diagonal ã_ii
// (the standard treatment for essentially negative-coupled problems).
func buildInterpolation[T matrix.Float](a *matrix.CSR[T], g *strengthGraph, split []int8) *matrix.CSR[T] {
	n := a.Rows
	var rowBuf []pEntry
	cmap := make([]int, n)
	nc := 0
	for i := 0; i < n; i++ {
		if split[i] == cPoint {
			cmap[i] = nc
			nc++
		} else {
			cmap[i] = -1
		}
	}
	p := &matrix.CSR[T]{Rows: n, Cols: nc, RowPtr: make([]int, n+1)}
	// strongC[j] == stamp marks j a strong C-neighbour of the current row;
	// the stamp, the row's index plus one, changes row to row, so no mark
	// needs clearing.
	strongC := make([]int, n)
	for i := 0; i < n; i++ {
		if split[i] == cPoint {
			p.ColIdx = append(p.ColIdx, cmap[i])
			p.Vals = append(p.Vals, 1)
			p.RowPtr[i+1] = len(p.Vals)
			continue
		}
		stamp, nStrongC := i+1, 0
		for _, j := range g.strongDeps(i) {
			if split[j] == cPoint {
				strongC[j] = stamp
				nStrongC++
			}
		}
		if nStrongC == 0 {
			// Isolated F-point: no coarse correction; smoothing handles it.
			p.RowPtr[i+1] = len(p.Vals)
			continue
		}
		var diag, negSum, cSum, posSum float64
		for jj := a.RowPtr[i]; jj < a.RowPtr[i+1]; jj++ {
			j := a.ColIdx[jj]
			v := float64(a.Vals[jj])
			switch {
			case j == i:
				diag = v
			case v < 0:
				negSum += v
				if strongC[j] == stamp {
					cSum += v
				}
			default:
				posSum += v
			}
		}
		diag += posSum // lump positive couplings
		if diag == 0 || cSum == 0 {
			p.RowPtr[i+1] = len(p.Vals)
			continue
		}
		alpha := negSum / cSum
		row := rowBuf[:0]
		for jj := a.RowPtr[i]; jj < a.RowPtr[i+1]; jj++ {
			j := a.ColIdx[jj]
			if strongC[j] != stamp {
				continue
			}
			row = append(row, pEntry{col: cmap[j], w: -alpha * float64(a.Vals[jj]) / diag})
		}
		row = truncateRow(row, pMax)
		rowBuf = row
		for _, e := range row {
			p.ColIdx = append(p.ColIdx, e.col)
			p.Vals = append(p.Vals, T(e.w))
		}
		p.RowPtr[i+1] = len(p.Vals)
	}
	return p
}

// pEntry is one interpolation weight during row assembly.
type pEntry struct {
	col int
	w   float64
}

// truncateRow implements interpolation truncation (Hypre's Pmax): keep the
// maxEntries (≥ 1) largest-magnitude weights and rescale so the row sum is
// preserved, which keeps the Galerkin coarse operators sparse (bounded
// operator complexity) at a negligible cost in convergence.
func truncateRow(row []pEntry, maxEntries int) []pEntry {
	if len(row) <= maxEntries {
		slices.SortFunc(row, byCol)
		return row
	}
	before := 0.0
	for _, e := range row {
		before += e.w
	}
	slices.SortFunc(row, byMagnitudeDesc)
	row = row[:maxEntries]
	after := 0.0
	for _, e := range row {
		after += e.w
	}
	if after != 0 {
		scale := before / after
		for i := range row {
			row[i].w *= scale
		}
	}
	slices.SortFunc(row, byCol)
	return row
}

// The two orders truncateRow sorts by. slices.SortFunc runs the same
// pattern-defeating quicksort sort.Slice does (insertion sort at these row
// lengths), so entries that compare equal land where they did before — P is
// entry for entry what the sort.Slice version built
// (TestTruncateRowMatchesReference) — without a reflection swapper and two
// closures allocated per row.
func byCol(a, b pEntry) int { return cmp.Compare(a.col, b.col) }

func byMagnitudeDesc(a, b pEntry) int {
	switch x, y := math.Abs(a.w), math.Abs(b.w); {
	case x > y:
		return -1
	case y > x:
		return 1
	}
	return 0
}
