package matrix

import "fmt"

// FormatHYB identifies the hybrid ELL+COO format. HYB is the repository's
// demonstration of the paper's extensibility claim (Section 3): a fifth
// format added on top of the basic four without changing the tuner — its
// storage lives here, its kernels register in the kernel library, and an
// extended model can classify into it. It is not part of Formats, so the
// stock four-format pipeline is unaffected unless a caller opts in.
const FormatHYB Format = numFormats

// HYB is the hybrid format of Bell & Garland: a regular ELL part holding
// the first Width entries of every row, plus a row-sorted COO part holding
// the overflow of heavier rows. It suits matrices that are mostly regular
// with a skewed tail — exactly where pure ELL drowns in padding.
type HYB[T Float] struct {
	ELL *ELL[T]
	COO *COO[T]
}

// Rows returns the row count.
func (m *HYB[T]) Rows() int { return m.ELL.Rows }

// Cols returns the column count.
func (m *HYB[T]) Cols() int { return m.ELL.Cols }

// NNZ returns the stored nonzero count across both parts.
func (m *HYB[T]) NNZ() int { return m.ELL.NNZ() + m.COO.NNZ() }

// Stored returns the element slots held across both parts, padding included.
func (m *HYB[T]) Stored() int { return m.ELL.Stored() + m.COO.Stored() }

// Validate checks both parts and their dimensional agreement.
func (m *HYB[T]) Validate() error {
	if m.ELL == nil || m.COO == nil {
		return fmt.Errorf("hyb: missing part")
	}
	if err := m.ELL.Validate(); err != nil {
		return fmt.Errorf("hyb ell: %w", err)
	}
	if err := m.COO.Validate(); err != nil {
		return fmt.Errorf("hyb coo: %w", err)
	}
	if m.ELL.Rows != m.COO.Rows || m.ELL.Cols != m.COO.Cols {
		return fmt.Errorf("hyb: part dimensions disagree %dx%d vs %dx%d",
			m.ELL.Rows, m.ELL.Cols, m.COO.Rows, m.COO.Cols)
	}
	return nil
}

// HybSplitWidth picks the ELL width for a CSR matrix: the largest width
// whose ELL part wastes at most maxPad of its slots on padding, which keeps
// the regular part dense while the COO tail absorbs the heavy rows.
func HybSplitWidth[T Float](m *CSR[T], maxPad float64) int {
	if m.Rows == 0 {
		return 0
	}
	// histogram[k] = number of rows with degree ≥ k is derived by suffix
	// summing the degree histogram.
	maxDeg := m.MaxRowDegree()
	atLeast := make([]int, maxDeg+2)
	for r := 0; r < m.Rows; r++ {
		atLeast[m.RowDegree(r)]++
	}
	for k := maxDeg - 1; k >= 0; k-- {
		atLeast[k] += atLeast[k+1]
	}
	best := 0
	stored := 0 // entries covered by widths ≤ current
	for w := 1; w <= maxDeg; w++ {
		stored += atLeast[w] // rows with degree ≥ w contribute one entry at slot w-1
		pad := w*m.Rows - stored
		if float64(pad) <= maxPad*float64(w*m.Rows) {
			best = w
		}
	}
	return best
}

// ToHYB converts to hybrid storage with the given ELL width (width < 0
// selects HybSplitWidth with 30% padding allowance).
func (m *CSR[T]) ToHYB(width int) *HYB[T] {
	if width < 0 {
		width = HybSplitWidth(m, 0.3)
	}
	ell := &ELL[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Width:  width,
		ColIdx: make([]int, width*m.Rows),
		Data:   make([]T, width*m.Rows),
	}
	coo := &COO[T]{Rows: m.Rows, Cols: m.Cols}
	for r := 0; r < m.Rows; r++ {
		slot := 0
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			if slot < width {
				ell.ColIdx[r*width+slot] = m.ColIdx[jj]
				ell.Data[r*width+slot] = m.Vals[jj]
				slot++
				continue
			}
			coo.RowIdx = append(coo.RowIdx, r)
			coo.ColIdx = append(coo.ColIdx, m.ColIdx[jj])
			coo.Vals = append(coo.Vals, m.Vals[jj])
		}
	}
	return &HYB[T]{ELL: ell, COO: coo}
}

// ToCSR converts hybrid storage back to CSR.
func (m *HYB[T]) ToCSR() *CSR[T] {
	var ts []Triple[T]
	e := m.ELL
	for r := 0; r < e.Rows; r++ {
		for k := r * e.Width; k < (r+1)*e.Width; k++ {
			if v := e.Data[k]; v != 0 {
				ts = append(ts, Triple[T]{Row: r, Col: e.ColIdx[k], Val: v})
			}
		}
	}
	for k := range m.COO.Vals {
		ts = append(ts, Triple[T]{Row: m.COO.RowIdx[k], Col: m.COO.ColIdx[k], Val: m.COO.Vals[k]})
	}
	out, err := FromTriples(m.ELL.Rows, m.ELL.Cols, ts)
	if err != nil {
		// Both parts were validated at conversion time; unreachable.
		panic(err)
	}
	return out
}
