package matrix

import (
	"math"
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
	// increasing order. A Layout of the row pass alone has none, and a
	// remembered one may have dropped them (nil either way): it then serves ELL
	// only, and kernels.ConvertFrom scans for DIA.
	DiagOffsets []int
}

// Structure is what a scan of a CSR matrix learns about its sparsity pattern,
// in two passes: the row pass (ScanRows, O(rows): RowPtr and each row's first
// and last column) the row-degree distribution and the band of diagonals the
// entries lie in, the column pass (ScanColumns, O(nnz)) the diagonal tally. The
// paper's Table 2 features are arithmetic on the record
// (features.FromStructure), and its Layout shapes the DIA and ELL conversions
// and their fill guards — so a tune that extracts features and then converts
// reads the pattern once, and one the row pass decides never reads the columns.
// A Structure describes exactly the matrix it was scanned from.
type Structure struct {
	Layout

	// SumDeg2 is the exact Σ deg² over rows (Σ deg is NNZ) and DegHist[k] the
	// number of rows with k stored entries, for k in [0, MaxDeg].
	SumDeg2 uint64
	DegHist []int

	// BandLo and BandHi are the smallest and largest diagonal offset (column −
	// row) over the rows' first and last entries: every occupied diagonal lies
	// in [BandLo, BandHi]. An empty matrix has the empty band [0, −1].
	BandLo, BandHi int

	// DiagCounts[i] is the number of stored entries on diagonal DiagOffsets[i].
	// Both are the column pass's: nil on a record of the row pass alone.
	DiagCounts []int32
}

// Band is the number of diagonals between the outermost two an entry can lie
// on: the row pass's upper bound on the occupied ones.
func (s *Structure) Band() int { return s.BandHi - s.BandLo + 1 }

// Scan reads the sparsity pattern of m once: both passes, back to back.
func Scan[T Float](m *CSR[T]) *Structure {
	s := ScanRows(m)
	ScanColumns(m, s)
	return s
}

// ScanRows is the row pass. It relies on the CSR invariant that column indices
// increase within a row: a row's first and last entries bound the diagonals it
// touches.
func ScanRows[T Float](m *CSR[T]) *Structure {
	s := &Structure{Layout: Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}, BandHi: -1}
	rowPtr, colIdx := m.RowPtr[:m.Rows+1], m.ColIdx
	maxDeg, sumDeg2 := 0, uint64(0)
	lo, hi := math.MaxInt, math.MinInt
	// The histogram cannot be sized before maxDeg is known, and a sweep of its
	// own would be as long as this one (one counter bumped row after row is a
	// serial chain). So the degrees below len(low)-1 — on most matrices all of
	// them — are counted here, where the chain hides behind the loads, and
	// only a matrix with longer rows is swept again, for those rows.
	var low [64]int
	const long = len(low) - 1
	for r := 0; r < m.Rows; r++ {
		first, end := rowPtr[r], rowPtr[r+1]
		deg := end - first
		low[min(deg, long)]++
		if deg == 0 {
			continue
		}
		maxDeg = max(maxDeg, deg)
		sumDeg2 += uint64(deg) * uint64(deg)
		lo = min(lo, colIdx[first]-r)
		hi = max(hi, colIdx[end-1]-r)
	}
	hist := make([]int, maxDeg+1)
	copy(hist, low[:long])
	if maxDeg >= long {
		for r := 0; r < m.Rows; r++ {
			if deg := rowPtr[r+1] - rowPtr[r]; deg >= long {
				hist[deg]++
			}
		}
	}
	s.MaxDeg, s.SumDeg2, s.DegHist = maxDeg, sumDeg2, hist
	if s.NNZ > 0 {
		s.BandLo, s.BandHi = lo, hi
	}
	return s
}

// ScanColumns is the column pass over m, which s = ScanRows(m) describes: it
// tallies the entries per diagonal into s.DiagOffsets and s.DiagCounts.
//
// A matrix dense enough to plausibly touch a fair share of its band tallies
// into a flat array indexed by offset − BandLo: one increment per nonzero. A
// hypersparse one (NNZ far below the band's width) would pay more for
// allocating and sweeping that array than for its nonzeros, so it sorts their
// offsets instead.
func ScanColumns[T Float](m *CSR[T], s *Structure) {
	if s.NNZ == 0 {
		return
	}
	rowPtr := m.RowPtr[:m.Rows+1]
	if s.NNZ < s.Band()/8 {
		offs := make([]int, 0, s.NNZ)
		for r := 0; r < m.Rows; r++ {
			for _, c := range m.ColIdx[rowPtr[r]:rowPtr[r+1]] {
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
		return
	}

	lo := s.BandLo
	tally := make([]int32, s.Band())
	for r := 0; r < m.Rows; r++ {
		shift := r + lo
		for _, c := range m.ColIdx[rowPtr[r]:rowPtr[r+1]] {
			tally[c-shift]++
		}
	}
	n := 0
	for _, cnt := range tally {
		if cnt != 0 {
			n++
		}
	}
	s.DiagOffsets, s.DiagCounts = make([]int, 0, n), make([]int32, 0, n)
	for idx, cnt := range tally {
		if cnt != 0 {
			s.DiagOffsets = append(s.DiagOffsets, idx+lo)
			s.DiagCounts = append(s.DiagCounts, cnt)
		}
	}
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
