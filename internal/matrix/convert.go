package matrix

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrFillExplosion is returned by ToDIA and ToELL when the converted
// representation would store more than the allowed multiple of the source
// nonzero count. DIA and ELL zero-fill sparse diagonals and short rows; on an
// unsuitable matrix the fill can exceed memory by orders of magnitude (the
// phenomenon the paper's ER_DIA / ER_ELL features exist to predict), so
// conversion refuses rather than allocating.
var ErrFillExplosion = errors.New("matrix: conversion would exceed fill limit")

// ErrStructureMismatch is returned by ToDIAFrom and ToELLFrom when the Layout
// they were handed has the matrix's shape but not its pattern: an entry on a
// diagonal the record does not list, a row longer than its width, or a listed
// diagonal or width no entry reaches. Nothing is returned with it; the caller
// scans the matrix and converts again.
var ErrStructureMismatch = errors.New("matrix: structure record does not describe this matrix's pattern")

// Triple is one (row, col, value) entry, the input unit for FromTriples.
type Triple[T Float] struct {
	Row, Col int
	Val      T
}

// FromTriples builds a CSR matrix from unordered triples. Duplicate (row,
// col) entries are summed; explicit zeros (including entries that cancel) are
// dropped. Out-of-range entries and negative dimensions are an error.
func FromTriples[T Float](rows, cols int, ts []Triple[T]) (*CSR[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: negative dimensions %dx%d", rows, cols)
	}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("matrix: triple (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := append([]Triple[T](nil), ts...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR[T]{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for k := 0; k < len(sorted); {
		r, c := sorted[k].Row, sorted[k].Col
		var sum T
		for k < len(sorted) && sorted[k].Row == r && sorted[k].Col == c {
			sum += sorted[k].Val
			k++
		}
		if sum != 0 {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, sum)
			m.RowPtr[r+1] = len(m.Vals)
		}
	}
	for r := 0; r < rows; r++ {
		if m.RowPtr[r+1] < m.RowPtr[r] {
			m.RowPtr[r+1] = m.RowPtr[r]
		}
	}
	return m, nil
}

// ToCOO returns the matrix in coordinate form, sorted by (row, col), as a
// view: RowIdx is built, ColIdx and Vals are the receiver's own slices.
// Nothing reads a COO matrix by writing to it, and a CSR matrix handed to the
// tuner is immutable from then on (smat.NewCSR uses the caller's slices
// directly, and the tuned CSR operator aliases them the same way), so the two
// copies would only double the conversion's memory traffic.
func (m *CSR[T]) ToCOO() *COO[T] {
	out := &COO[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowIdx: make([]int, m.NNZ()),
		ColIdx: m.ColIdx,
		Vals:   m.Vals,
	}
	for r := 0; r < m.Rows; r++ {
		row := out.RowIdx[m.RowPtr[r]:m.RowPtr[r+1]]
		for i := range row {
			row[i] = r
		}
	}
	return out
}

// ToCSR converts COO back to CSR. Entries already sorted by (row, col) with
// no duplicates — the representation's documented invariant — convert with a
// direct copy that preserves every stored value, explicit zeros included.
// Entries violating the invariant used to be converted anyway, with RowPtr
// built by counting while ColIdx/Vals kept input order: values silently
// attached to the wrong rows. Unsorted or duplicate-carrying input is now
// canonicalised first (sorted by (row, col), duplicates summed, zero sums
// dropped — FromTriples semantics). Entries outside the matrix panic, as
// every conversion of an invalid representation does; run Validate first on
// untrusted input.
func (m *COO[T]) ToCSR() *CSR[T] {
	if !m.canonical() {
		ts := make([]Triple[T], len(m.Vals))
		for k := range m.Vals {
			ts[k] = Triple[T]{Row: m.RowIdx[k], Col: m.ColIdx[k], Val: m.Vals[k]}
		}
		out, err := FromTriples(m.Rows, m.Cols, ts)
		if err != nil {
			panic(fmt.Sprintf("matrix: COO.ToCSR on invalid representation: %v", err))
		}
		return out
	}
	out := &CSR[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: make([]int, m.Rows+1),
		ColIdx: append([]int(nil), m.ColIdx...),
		Vals:   append([]T(nil), m.Vals...),
	}
	for _, r := range m.RowIdx {
		out.RowPtr[r+1]++
	}
	for r := 0; r < m.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	return out
}

// canonical reports whether the entries are sorted by (row, col) with no
// duplicate coordinates — the precondition of the direct COO→CSR copy.
func (m *COO[T]) canonical() bool {
	for k := 1; k < len(m.RowIdx); k++ {
		r, c := m.RowIdx[k], m.ColIdx[k]
		pr, pc := m.RowIdx[k-1], m.ColIdx[k-1]
		if r < pr || (r == pr && c <= pc) {
			return false
		}
	}
	return true
}

// fillExceeds reports whether storing `stored` element slots for nnz
// nonzeros breaks the fill limit (≤0 means unlimited).
func fillExceeds(stored, nnz int, maxFillRatio float64) bool {
	return maxFillRatio > 0 && nnz > 0 && float64(stored) > maxFillRatio*float64(nnz)
}

// ToDIA converts to diagonal storage. maxFillRatio bounds the stored-element
// count as a multiple of NNZ (≤0 means unlimited); conversion fails with
// ErrFillExplosion beyond it.
func (m *CSR[T]) ToDIA(maxFillRatio float64) (*DIA[T], error) {
	return m.ToDIAFrom(&Scan(m).Layout, maxFillRatio)
}

// ToDIAFrom is ToDIA for a caller that already holds l = Scan(m).Layout: the
// stored diagonals are the record's, so the fill guard is arithmetic and the
// matrix is read once, to place its values. The record is checked as it is
// used — every entry must fall on a listed diagonal and every listed diagonal
// must receive one — so a record of another pattern yields
// ErrStructureMismatch, never a misplaced entry.
func (m *CSR[T]) ToDIAFrom(l *Layout, maxFillRatio float64) (*DIA[T], error) {
	l.of(m.Rows, m.Cols, m.NNZ())
	stored := len(l.DiagOffsets) * m.Rows
	if fillExceeds(stored, m.NNZ(), maxFillRatio) {
		return nil, fmt.Errorf("%w: DIA would store %d elements for %d nonzeros",
			ErrFillExplosion, stored, m.NNZ())
	}
	// The record is shared; the DIA matrix owns its offsets.
	d := &DIA[T]{Rows: m.Rows, Cols: m.Cols, Offsets: slices.Clone(l.DiagOffsets), Data: make([]T, stored)}
	if len(d.Offsets) == 0 {
		if m.NNZ() > 0 {
			return nil, ErrStructureMismatch
		}
		return d, nil
	}
	// Flat offset→diagonal-index table over the record's band, −1 where the
	// record lists no diagonal. unseen counts the listed diagonals no entry has
	// reached yet: on a band that is zero after a few rows, and the marking is
	// off the loop's path from then on.
	lo := d.Offsets[0]
	pos := make([]int32, d.Offsets[len(d.Offsets)-1]-lo+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, off := range d.Offsets {
		pos[off-lo] = int32(i)
	}
	seen, unseen := make([]bool, len(d.Offsets)), len(d.Offsets)
	for r := 0; r < m.Rows; r++ {
		shift := r + lo
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			at := m.ColIdx[jj] - shift
			if uint(at) >= uint(len(pos)) || pos[at] < 0 {
				return nil, ErrStructureMismatch
			}
			dgi := int(pos[at])
			if unseen > 0 && !seen[dgi] {
				seen[dgi] = true
				unseen--
			}
			d.Data[dgi*m.Rows+r] = m.Vals[jj]
		}
	}
	if unseen > 0 {
		return nil, ErrStructureMismatch
	}
	return d, nil
}

// ToCSR converts diagonal storage back to CSR, dropping zero fill.
func (m *DIA[T]) ToCSR() *CSR[T] {
	var ts []Triple[T]
	for d, off := range m.Offsets {
		for r := 0; r < m.Rows; r++ {
			c := r + off
			if c < 0 || c >= m.Cols {
				continue
			}
			if v := m.Data[d*m.Rows+r]; v != 0 {
				ts = append(ts, Triple[T]{Row: r, Col: c, Val: v})
			}
		}
	}
	out, err := FromTriples(m.Rows, m.Cols, ts)
	if err != nil {
		// Offsets were validated to lie inside the matrix; unreachable.
		panic(err)
	}
	return out
}

// MaxRowDegree returns the maximum number of stored entries in any row.
func (m *CSR[T]) MaxRowDegree() int {
	max := 0
	for r := 0; r < m.Rows; r++ {
		if d := m.RowDegree(r); d > max {
			max = d
		}
	}
	return max
}

// ToELL converts to ELLPACK storage with Width = MaxRowDegree. maxFillRatio
// bounds the stored-element count as a multiple of NNZ (≤0 means unlimited).
func (m *CSR[T]) ToELL(maxFillRatio float64) (*ELL[T], error) {
	return m.toELL(m.MaxRowDegree(), maxFillRatio)
}

// ToELLFrom is ToELL for a caller that already holds l = Scan(m).Layout: the
// width is the record's maximum row degree, checked against every row as it is
// placed (ErrStructureMismatch).
func (m *CSR[T]) ToELLFrom(l *Layout, maxFillRatio float64) (*ELL[T], error) {
	l.of(m.Rows, m.Cols, m.NNZ())
	return m.toELL(l.MaxDeg, maxFillRatio)
}

// toELL pads every row to width, which must be the maximum row degree: a row
// longer than width, or no row as long, is ErrStructureMismatch.
func (m *CSR[T]) toELL(width int, maxFillRatio float64) (*ELL[T], error) {
	stored := width * m.Rows
	if fillExceeds(stored, m.NNZ(), maxFillRatio) {
		return nil, fmt.Errorf("%w: ELL would store %d elements for %d nonzeros",
			ErrFillExplosion, stored, m.NNZ())
	}
	e := &ELL[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		Width:  width,
		ColIdx: make([]int, stored),
		Data:   make([]T, stored),
	}
	reached := width == 0
	for r := 0; r < m.Rows; r++ {
		lo, hi := m.RowPtr[r], m.RowPtr[r+1]
		if hi-lo >= width {
			if hi-lo > width {
				return nil, ErrStructureMismatch
			}
			reached = true
		}
		slot := 0
		for jj := lo; jj < hi; jj++ {
			e.ColIdx[slot*m.Rows+r] = m.ColIdx[jj]
			e.Data[slot*m.Rows+r] = m.Vals[jj]
			slot++
		}
	}
	if !reached {
		return nil, ErrStructureMismatch
	}
	return e, nil
}

// ToCSR converts ELLPACK storage back to CSR, dropping padding.
func (m *ELL[T]) ToCSR() *CSR[T] {
	var ts []Triple[T]
	for r := 0; r < m.Rows; r++ {
		for slot := 0; slot < m.Width; slot++ {
			if v := m.Data[slot*m.Rows+r]; v != 0 {
				ts = append(ts, Triple[T]{Row: r, Col: m.ColIdx[slot*m.Rows+r], Val: v})
			}
		}
	}
	out, err := FromTriples(m.Rows, m.Cols, ts)
	if err != nil {
		// Column indices were validated at conversion time; unreachable.
		panic(err)
	}
	return out
}

// Equal reports exact structural and numerical equality of two CSR matrices.
func (m *CSR[T]) Equal(o *CSR[T]) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != o.ColIdx[i] || m.Vals[i] != o.Vals[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports structural equality and elementwise agreement within
// tol (relative for large magnitudes).
func (m *CSR[T]) ApproxEqual(o *CSR[T], tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.RowPtr {
		if m.RowPtr[i] != o.RowPtr[i] {
			return false
		}
	}
	for i := range m.ColIdx {
		if m.ColIdx[i] != o.ColIdx[i] {
			return false
		}
	}
	return VecApproxEqual(m.Vals, o.Vals, tol)
}
