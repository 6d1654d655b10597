package matrix

import (
	"math/bits"
	"slices"
)

// Layout is the part of a structure scan the DIA and ELL conversions consume:
// the shape they must agree with, ELL's width and DIA's diagonals. It is
// O(stored diagonals) however large the matrix — small enough to remember per
// pattern (internal/autotune's structure index). A Layout is immutable. One
// that did not come from scanning the very matrix it is handed with is caught,
// not trusted: ToDIAFrom and ToELLFrom check it against every entry they place
// (ErrStructureMismatch).
type Layout struct {
	Rows, Cols, NNZ int

	// MaxDeg is the largest row degree.
	MaxDeg int

	// DiagOffsets lists the occupied diagonals' offsets (column − row) in
	// increasing order. A remembered Layout may have dropped them (nil): it
	// then serves ELL only, and kernels.ConvertFrom scans for DIA.
	DiagOffsets []int
}

// Structure is what one pass over a CSR matrix's RowPtr and ColIdx learns
// about its sparsity pattern: the row-degree distribution and the diagonal
// tally. The paper's Table 2 features are arithmetic on it
// (features.FromStructure), and its Layout shapes the DIA and ELL conversions
// and their fill guards — so a tune that extracts features and then converts
// reads the pattern once. A Structure is immutable and describes exactly the
// matrix it was scanned from.
type Structure struct {
	Layout

	// SumDeg2 is the exact Σ deg² over rows (Σ deg is NNZ) and DegHist[k] the
	// number of rows with k stored entries, for k in [0, MaxDeg].
	SumDeg2 uint64
	DegHist []int

	// DiagCounts[i] is the number of stored entries on diagonal DiagOffsets[i].
	DiagCounts []int32
}

// Scan reads the sparsity pattern of m once. It relies on the CSR invariant
// that column indices increase within a row: a row's first and last entries
// bound the diagonals it touches.
func Scan[T Float](m *CSR[T]) *Structure {
	s := &Structure{Layout: Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}}
	rowPtr := m.RowPtr[:m.Rows+1]
	maxDeg, sumDeg2 := 0, uint64(0)
	for r := 0; r < m.Rows; r++ {
		deg := rowPtr[r+1] - rowPtr[r]
		maxDeg = max(maxDeg, deg)
		sumDeg2 += uint64(deg) * uint64(deg)
	}
	hist := make([]int, maxDeg+1)
	s.MaxDeg, s.SumDeg2, s.DegHist = maxDeg, sumDeg2, hist
	if s.NNZ == 0 {
		hist[0] = m.Rows
		return s
	}

	// A diagonal's offset (column − row) ranges over [-(Rows-1), Cols-1]. A
	// matrix dense enough to plausibly touch a fair share of those
	// Rows+Cols-1 diagonals tallies into a flat array indexed by
	// offset+(Rows-1): one increment per nonzero. A hypersparse one (NNZ far
	// below the diagonal count) would pay more for allocating and sweeping
	// that array than for its nonzeros, so it sorts their offsets instead.
	if s.NNZ < (m.Rows+m.Cols)/8 {
		offs := make([]int, 0, s.NNZ)
		for r := 0; r < m.Rows; r++ {
			row := m.ColIdx[rowPtr[r]:rowPtr[r+1]]
			hist[len(row)]++
			for _, c := range row {
				offs = append(offs, c-r)
			}
		}
		slices.Sort(offs)
		n := 1
		for i := 1; i < len(offs); i++ {
			if offs[i] != offs[i-1] {
				n++
			}
		}
		s.DiagOffsets, s.DiagCounts = make([]int, 0, n), make([]int32, 0, n)
		for i, off := range offs {
			if i == 0 || off != offs[i-1] {
				s.DiagOffsets = append(s.DiagOffsets, off)
				s.DiagCounts = append(s.DiagCounts, 0)
			}
			s.DiagCounts[len(s.DiagCounts)-1]++
		}
		return s
	}

	base := m.Rows - 1
	tally := make([]int32, m.Rows+m.Cols-1)
	lo, hi := len(tally), 0 // the occupied band of the tally
	for r := 0; r < m.Rows; r++ {
		row := m.ColIdx[rowPtr[r]:rowPtr[r+1]]
		hist[len(row)]++
		if len(row) == 0 {
			continue
		}
		shift := base - r
		lo = min(lo, row[0]+shift)
		hi = max(hi, row[len(row)-1]+shift)
		for _, c := range row {
			tally[c+shift]++
		}
	}
	band := tally[lo : hi+1]
	n := 0
	for _, cnt := range band {
		if cnt != 0 {
			n++
		}
	}
	s.DiagOffsets, s.DiagCounts = make([]int, 0, n), make([]int32, 0, n)
	for idx, cnt := range band {
		if cnt != 0 {
			s.DiagOffsets = append(s.DiagOffsets, idx+lo-base)
			s.DiagCounts = append(s.DiagCounts, cnt)
		}
	}
	return s
}

// DegreeVariance returns the population variance of the row degrees,
// Σ(deg − NNZ/Rows)² / Rows, from the exact integer sums: the numerator
// Rows·Σdeg² − NNZ² is formed in 128 bits, so nearly uniform degree
// distributions lose nothing to cancellation. It is 0 for a matrix without
// rows.
func (s *Structure) DegreeVariance() float64 {
	if s.Rows == 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(s.Rows), s.SumDeg2)
	sqHi, sqLo := bits.Mul64(uint64(s.NNZ), uint64(s.NNZ))
	lo, borrow := bits.Sub64(lo, sqLo, 0)
	hi, _ = bits.Sub64(hi, sqHi, borrow)
	rows := float64(s.Rows)
	return (float64(hi)*(1<<64) + float64(lo)) / (rows * rows)
}

// of panics unless l was scanned from a matrix of m's shape: handing a
// conversion the record of a differently shaped matrix is a caller bug. A
// record of the right shape and the wrong pattern is not: see
// ErrStructureMismatch.
func (l *Layout) of(rows, cols, nnz int) {
	if l.Rows != rows || l.Cols != cols || l.NNZ != nnz {
		panic("matrix: Layout does not describe this matrix")
	}
}
