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
	// increasing order. A Layout of the row pass alone has none (nil): ToDIAFrom
	// then tallies them itself, and the caller may keep them from the DIA it
	// returns.
	DiagOffsets []int
}

// Structure is what a scan of a CSR matrix learns about its sparsity pattern,
// in two passes: the row pass (ScanRows, O(rows), RowPtr alone) the
// row-degree distribution, the column pass (Scan, O(nnz)) the diagonal
// tally. The paper's Table 2 features are arithmetic on the record
// (features.FromStructure), and its Layout shapes the DIA and ELL conversions
// and their fill guards. A Structure describes exactly the matrix it was
// scanned from.
type Structure struct {
	Layout

	// SumDeg2 is the exact Σ deg² over rows (Σ deg is NNZ) and DegHist[k] the
	// number of rows with k stored entries, for k in [0, MaxDeg].
	SumDeg2 uint64
	DegHist []int

	// DiagCounts[i] is the number of stored entries on diagonal DiagOffsets[i].
	// Both are the column pass's: nil on a record of the row pass alone.
	DiagCounts []int32
}

// Scan reads the sparsity pattern of m once: the row pass, then the column
// pass, which tallies the entries per diagonal into DiagOffsets and
// DiagCounts.
func Scan[T Float](m *CSR[T]) *Structure {
	s := ScanRows(m)
	s.DiagOffsets, s.DiagCounts = m.tally()
	return s
}

// ScanRows is the row pass: it reads RowPtr and nothing else.
func ScanRows[T Float](m *CSR[T]) *Structure {
	s := &Structure{Layout: Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}}
	rowPtr := m.RowPtr[:m.Rows+1]
	// The histogram cannot be sized before maxDeg is known, and a sweep of its
	// own would be as long as this one. So the degrees below long — on most
	// matrices all of them — are counted here, and only a matrix with longer
	// rows is swept again, for those rows. Four rows in a row count into four
	// histograms: on a stencil, whose rows share one degree, one histogram
	// would be bumped at one counter row after row, each increment waiting on
	// the last one's store.
	var low [4][64]int
	const long = len(low[0]) - 1
	var maxDeg [2]int
	var sumDeg2 [2]uint64
	r := 0
	for ; r+4 <= m.Rows; r += 4 {
		p := rowPtr[r : r+5 : r+5]
		d0, d1, d2, d3 := p[1]-p[0], p[2]-p[1], p[3]-p[2], p[4]-p[3]
		low[0][min(d0, long)]++
		low[1][min(d1, long)]++
		low[2][min(d2, long)]++
		low[3][min(d3, long)]++
		maxDeg[0] = max(maxDeg[0], d0, d1)
		maxDeg[1] = max(maxDeg[1], d2, d3)
		sumDeg2[0] += uint64(d0)*uint64(d0) + uint64(d1)*uint64(d1)
		sumDeg2[1] += uint64(d2)*uint64(d2) + uint64(d3)*uint64(d3)
	}
	for ; r < m.Rows; r++ {
		deg := rowPtr[r+1] - rowPtr[r]
		low[0][min(deg, long)]++
		maxDeg[0] = max(maxDeg[0], deg)
		sumDeg2[0] += uint64(deg) * uint64(deg)
	}
	s.MaxDeg, s.SumDeg2 = max(maxDeg[0], maxDeg[1]), sumDeg2[0]+sumDeg2[1]
	s.DegHist = make([]int, s.MaxDeg+1)
	for k := range min(long, s.MaxDeg+1) {
		s.DegHist[k] = low[0][k] + low[1][k] + low[2][k] + low[3][k]
	}
	if s.MaxDeg >= long {
		for r := 0; r < m.Rows; r++ {
			if deg := rowPtr[r+1] - rowPtr[r]; deg >= long {
				s.DegHist[deg]++
			}
		}
	}
	return s
}

// tally counts m's entries per diagonal: the occupied offsets in increasing
// order, and each one's count. A matrix dense enough to plausibly touch a fair
// share of the band its rows' end entries span tallies into a flat array
// indexed by offset − the band's lowest: one increment per nonzero. A
// hypersparse one (NNZ far below the band's width) would pay more for
// allocating and sweeping that array than for its nonzeros, so it sorts their
// offsets instead.
func (m *CSR[T]) tally() ([]int, []int32) {
	rowPtr, nnz := m.RowPtr[:m.Rows+1], m.NNZ()
	if nnz == 0 {
		return []int{}, []int32{}
	}
	lo, hi := math.MaxInt, math.MinInt
	for r := 0; r < m.Rows; r++ {
		if first, end := rowPtr[r], rowPtr[r+1]; end > first {
			lo, hi = min(lo, m.ColIdx[first]-r), max(hi, m.ColIdx[end-1]-r)
		}
	}
	if band := hi - lo + 1; nnz < band/8 {
		offs := make([]int, 0, nnz)
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
		offsets, counts := make([]int, 0, n), make([]int32, 0, n)
		for i, off := range offs {
			if i == 0 || off != offs[i-1] {
				offsets = append(offsets, off)
				counts = append(counts, 0)
			}
			counts[len(counts)-1]++
		}
		return offsets, counts
	}

	tally := make([]int32, hi-lo+1)
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
	offsets, counts := make([]int, 0, n), make([]int32, 0, n)
	for idx, cnt := range tally {
		if cnt != 0 {
			offsets = append(offsets, idx+lo)
			counts = append(counts, cnt)
		}
	}
	return offsets, counts
}

// sampleBits sizes SampleDiagonals' set: 2^sampleBits slots, twice the most
// offsets it can hold.
const sampleBits = 10

// DiagSample is the most entries SampleDiagonals reads.
const DiagSample = 1 << (sampleBits - 1)

// DiagonalSample is what SampleDiagonals learns of a matrix's diagonals: the
// distinct ones it met, and the True ones, with an entry on at least the asked
// occupancy of the sampled rows they cross.
type DiagonalSample struct{ Diags, True int }

// SampleDiagonals samples the diagonals (column − row) of m from at most
// DiagSample of its entries: whole rows, one from each of as many equal
// strata of the rows as DiagSample entries of rows of average length fill,
// until the next would overrun the budget. A matrix of at most DiagSample
// entries is read whole, so Diags and True are then the tally's. It is a
// fixed function of m's pattern, and allocates nothing: the offsets and their
// entry counts go into a fixed-size open-addressing set.
func SampleDiagonals[T Float](m *CSR[T], occupancy float64) DiagonalSample {
	var ds DiagonalSample
	nnz := m.NNZ()
	if nnz == 0 {
		return ds
	}
	rows := min(m.Rows, (DiagSample*m.Rows+nnz-1)/nnz)
	// A diagonal met once that crosses more than three strata of rows is not
	// true: in slot terms (offset + Rows), one in [long, longHi]. The slots of
	// the others go in check.
	long := 3*m.Rows/rows + 1
	longHi := m.Rows + m.Cols - long
	if min(m.Rows, m.Cols) < long {
		longHi = 0
	}
	// A slot holds offset + Rows, which is at least 1; 0 marks it free. hits
	// counts the slot's entries.
	var set [1 << sampleBits]int
	var hits [1 << sampleBits]int32
	var check [DiagSample]uint16
	const mask = len(set) - 1
	read, checks := 0, 0
	for left, lo := DiagSample, 0; read < rows; read++ {
		// The row is drawn from its stratum at a golden-ratio fraction of the
		// stratum's width: the rows rise, and no stride aliases with a
		// period of the pattern.
		hi := (read + 1) * m.Rows / rows
		at, _ := bits.Mul64(uint64(read)*0x9E3779B97F4A7C15, uint64(hi-lo))
		r := lo + int(at)
		lo = hi
		first, end := m.RowPtr[r], m.RowPtr[r+1]
		if left -= end - first; left < 0 {
			break
		}
		for _, c := range m.ColIdx[first:end] {
			key := c - r + m.Rows
			h := int(uint64(key) * 0x9E3779B97F4A7C15 >> (64 - sampleBits))
			for set[h] != 0 && set[h] != key {
				h = (h + 1) & mask
			}
			// A short diagonal is checked when first met, a long one when met
			// twice.
			switch hits[h]++; hits[h] {
			case 1:
				set[h] = key
				ds.Diags++
				if key < long || key > longHi {
					check[checks], checks = uint16(h), checks+1
				}
			case 2:
				if long <= key && key <= longHi {
					check[checks], checks = uint16(h), checks+1
				}
			}
		}
	}
	// One sampled row lies in each stratum, so about ⌈x·rows/Rows⌉ of those
	// read lie above row x: exactly x when the sample reads every row.
	perRow := float64(rows) / float64(m.Rows)
	above := func(x int) float64 { return min(float64(read), math.Ceil(float64(x)*perRow)) }
	for _, h := range check[:checks] {
		off := set[h] - m.Rows
		hit, crossed := float64(hits[h]), above(min(m.Rows, m.Cols-off))-above(max(0, -off))
		if hit >= occupancy*crossed {
			ds.True++
		}
	}
	return ds
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
