package matrix

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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

// Split is how a conversion runs over the matrix's rows: Bounds cut [0, Rows)
// into chunks — chunk c covers rows [Bounds[c], Bounds[c+1]) — and Run runs
// a body over every chunk of its bounds, returning when all have run
// (kernels.Pool.RunChunks has its signature). Nil Bounds, or bounds of
// one chunk, run on the caller, so the zero Split is the serial conversion.
// Each chunk writes only its own rows and keeps its own verdicts, merged
// after the run, so the result — the error included — does not depend on
// the Split.
type Split struct {
	Bounds []int
	Run    func(bounds []int, fn func(chunk, lo, hi int))
}

// chunks returns how many chunks sp cuts rows into. Bounds that do not cover
// exactly [0, rows) are a caller bug.
func (sp Split) chunks(rows int) int {
	b := sp.Bounds
	if b == nil {
		return 1
	}
	if len(b) < 2 || b[0] != 0 || b[len(b)-1] != rows {
		panic("matrix: Split bounds do not cover the matrix's rows")
	}
	return len(b) - 1
}

// run runs body over the chunks sp cuts rows into.
func (sp Split) run(rows int, body func(chunk, lo, hi int)) {
	if sp.chunks(rows) == 1 {
		body(0, 0, rows)
		return
	}
	sp.Run(sp.Bounds, body)
}

// Triple is one (row, col, value) entry, the input unit for FromTriples.
type Triple[T Float] struct {
	Row, Col int
	Val      T
}

// FromTriples builds a CSR matrix from unordered triples. Duplicate (row,
// col) entries are summed in input order; explicit zeros (including entries
// that cancel) are dropped. Out-of-range entries and negative dimensions are
// an error.
//
// It costs O(nnz + rows), plus O(d log d) for a row of d entries longer than
// 32 that is not already in column order, and allocates only its result
// (and, for such rows, one scratch of the longest): a counting sort by row
// into the output arrays, each row keeping input order, then a stable sort
// of each row by column in place, duplicates summed and zeros dropped as the
// arrays are compacted.
func FromTriples[T Float](rows, cols int, ts []Triple[T]) (*CSR[T], error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("matrix: negative dimensions %dx%d", rows, cols)
	}
	// Row r is counted at rowPtr[r+2], so that after the prefix sum
	// rowPtr[r+1] is row r's first slot: the scatter's cursor, which it
	// leaves at the row's end. The extra slot is sliced off the result.
	rowPtr := make([]int, rows+2)
	for _, t := range ts {
		if uint(t.Row) >= uint(rows) || uint(t.Col) >= uint(cols) {
			return nil, fmt.Errorf("matrix: triple (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
		rowPtr[t.Row+2]++
	}
	for r := 2; r < len(rowPtr); r++ {
		rowPtr[r] += rowPtr[r-1]
	}
	colIdx := make([]int, len(ts))
	vals := make([]T, len(ts))
	for _, t := range ts {
		k := rowPtr[t.Row+1]
		colIdx[k], vals[k] = t.Col, t.Val
		rowPtr[t.Row+1] = k + 1
	}
	var scratch []rowEntry[T]
	w, lo := 0, 0
	for r := 1; r <= rows; r++ {
		hi := rowPtr[r]
		c, v := colIdx[lo:hi], vals[lo:hi]
		if len(c) > insertionMax && !slices.IsSorted(c) {
			scratch = sortRowStable(c, v, scratch)
		} else {
			insertionSortRow(c, v)
		}
		for k := 0; k < len(c); {
			col := c[k]
			var sum T
			for ; k < len(c) && c[k] == col; k++ {
				sum += v[k]
			}
			if sum != 0 {
				colIdx[w], vals[w] = col, sum
				w++
			}
		}
		rowPtr[r], lo = w, hi
	}
	return &CSR[T]{Rows: rows, Cols: cols, RowPtr: rowPtr[:rows+1], ColIdx: colIdx[:w], Vals: vals[:w]}, nil
}

// insertionMax is the longest row FromTriples sorts by insertion; a longer
// one would cost O(d²) moves in the worst case.
const insertionMax = 32

// rowEntry is one entry of a row being sorted by sortRowStable: its column,
// its place in the row, which breaks ties between duplicates, and its value.
type rowEntry[T Float] struct {
	col, pos int
	val      T
}

// insertionSortRow sorts a row's entries by column, stably, moving each
// value with its column.
func insertionSortRow[T Float](c []int, v []T) {
	v = v[:len(c)]
	for i := 1; i < len(c); i++ {
		ci, vi := c[i], v[i]
		j := i
		for ; j > 0 && c[j-1] > ci; j-- {
			c[j], v[j] = c[j-1], v[j-1]
		}
		c[j], v[j] = ci, vi
	}
}

// sortRowStable is insertionSortRow for long rows, in O(d log d): it sorts
// (col, pos, val) entries by column and then place with slices.SortFunc,
// which is insertionSortRow's order. slices.SortStableFunc gives the same
// order with O(d log² d) moves, 2–8× slower on rows of 300 to 2^16 entries.
// The scratch grows as needed and is returned for the next row.
func sortRowStable[T Float](c []int, v []T, scratch []rowEntry[T]) []rowEntry[T] {
	if cap(scratch) < len(c) {
		scratch = make([]rowEntry[T], len(c))
	}
	e := scratch[:len(c)]
	for k := range e {
		e[k] = rowEntry[T]{c[k], k, v[k]}
	}
	slices.SortFunc(e, func(a, b rowEntry[T]) int {
		if a.col != b.col {
			return cmp.Compare(a.col, b.col)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	for k, x := range e {
		c[k], v[k] = x.col, x.val
	}
	return scratch
}

// ToCOO returns the matrix in coordinate form, sorted by (row, col), as a
// view: RowIdx is built, ColIdx and Vals are the receiver's own slices.
// Nothing reads a COO matrix by writing to it, and a CSR matrix handed to the
// tuner is immutable from then on (smat.NewCSR uses the caller's slices
// directly, and the tuned CSR operator aliases them the same way), so the two
// copies would only double the conversion's memory traffic.
func (m *CSR[T]) ToCOO() *COO[T] { return m.ToCOOSplit(Split{}) }

// ToCOOSplit is ToCOO with RowIdx filled in the row chunks of sp.
func (m *CSR[T]) ToCOOSplit(sp Split) *COO[T] {
	out := &COO[T]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowIdx: make([]int, m.NNZ()),
		ColIdx: m.ColIdx,
		Vals:   m.Vals,
	}
	sp.run(m.Rows, func(_, lo, hi int) { m.cooRows(out.RowIdx, lo, hi) })
	return out
}

// cooRows is COO's row-range body: the row index of every entry of rows
// [lo, hi), into a rowIdx that is zero over those entries (as make leaves
// it). An entry's row is lo plus the number of rows after lo that start at or
// before it, so each such row adds one at its first entry — rows that start
// at the same entry, the empty ones, stack — and a running sum over the
// entries, four a step, turns the marks into row indices. Neither loop's trip
// count depends on a row's length: a loop per row would mispredict its exit
// once a row on short, irregular rows. A row that starts at the chunk's end,
// RowPtr[hi], holds no entry of the chunk and marks nothing; the entries past
// it may be the next chunk's, written by another worker.
func (m *CSR[T]) cooRows(rowIdx []int, lo, hi int) {
	if lo == hi {
		return
	}
	start, end := m.RowPtr[lo], m.RowPtr[hi]
	idx := rowIdx[start:end]
	for _, p := range m.RowPtr[lo+1 : hi] {
		if p < end {
			idx[p-start]++
		}
	}
	r, k := lo, 0
	for ; k+4 <= len(idx); k += 4 {
		q := idx[k : k+4 : k+4]
		r0 := r + q[0]
		r1 := r0 + q[1]
		r2 := r1 + q[2]
		r = r2 + q[3]
		q[0], q[1], q[2], q[3] = r0, r1, r2, r
	}
	for ; k < len(idx); k++ {
		r += idx[k]
		idx[k] = r
	}
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
	return m.ToDIAFrom(&Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}, maxFillRatio, Split{})
}

// ToDIAFrom is ToDIA from a structure record of m, run in the row chunks of
// sp. A record that lists the diagonals (Scan's, or one that kept a DIA's
// offsets) makes the fill guard arithmetic, and the matrix is read once, to
// place its values. A record of the row pass alone lists none: the
// conversion then tallies them first — Scan's column pass — and the
// fill guard rejects from the tally, before the values are allocated. A
// listed record is checked as it is used — every entry must fall on a listed
// diagonal and every listed diagonal must receive one — so a record of
// another pattern yields ErrStructureMismatch, never a misplaced entry.
func (m *CSR[T]) ToDIAFrom(l *Layout, maxFillRatio float64, sp Split) (*DIA[T], error) {
	l.of(m.Rows, m.Cols, m.NNZ())
	// The record is shared; the DIA matrix owns its offsets.
	offsets := slices.Clone(l.DiagOffsets)
	if offsets == nil {
		offsets, _ = m.tally()
	}
	stored := len(offsets) * m.Rows
	if fillExceeds(stored, m.NNZ(), maxFillRatio) {
		return nil, fmt.Errorf("%w: DIA would store %d elements for %d nonzeros",
			ErrFillExplosion, stored, m.NNZ())
	}
	d := &DIA[T]{Rows: m.Rows, Cols: m.Cols, Offsets: offsets, Data: make([]T, stored)}
	ndiags := len(d.Offsets)
	if ndiags == 0 {
		if m.NNZ() > 0 {
			return nil, ErrStructureMismatch
		}
		return d, nil
	}
	// Flat offset→diagonal-index table over the record's band, −1 where the
	// record lists no diagonal.
	base := d.Offsets[0]
	pos := make([]int32, d.Offsets[ndiags-1]-base+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, off := range d.Offsets {
		pos[off-base] = int32(i)
	}
	// Each chunk marks the diagonals its rows reach in a row of seen of its
	// own; a diagonal no chunk reached is one the record lists in excess.
	chunks := sp.chunks(m.Rows)
	seen, verdicts := make([]bool, chunks*ndiags), make([]diaVerdict, chunks)
	sp.run(m.Rows, func(c, lo, hi int) {
		verdicts[c] = m.diaRows(d, pos, seen[c*ndiags:(c+1)*ndiags], lo, hi)
	})
	reached := false
	for _, v := range verdicts {
		if v.foreign {
			return nil, ErrStructureMismatch
		}
		reached = reached || v.unseen == 0
	}
	for i := 0; !reached && i < ndiags; i++ {
		hit := false
		for c := 0; !hit && c < chunks; c++ {
			hit = seen[c*ndiags+i]
		}
		if !hit {
			return nil, ErrStructureMismatch
		}
	}
	return d, nil
}

// diaVerdict is what one chunk of a DIA conversion learned of the record:
// foreign, an entry on no listed diagonal; unseen, how many listed diagonals
// its rows did not reach.
type diaVerdict struct {
	foreign bool
	unseen  int
}

// diaRows is DIA's row-range body: it places rows [lo, hi) into d.Data and
// marks in seen the diagonals they reach. It stops at the first entry on no
// listed diagonal.
//
// A row with one entry per listed diagonal — every interior row of a band or
// a stencil — needs no table: its columns are strictly increasing, so if each
// lies on a listed diagonal its k-th lies on the k-th, and such a row reaches
// every diagonal. diaRows hands each run of such rows to diaBand whole. Any
// other row goes through pos, the offset − base → diagonal-index table (−1:
// not listed, which sends the slot below zero), marking what it reaches while
// unseen, the count of diagonals not reached yet, is above zero.
func (m *CSR[T]) diaRows(d *DIA[T], pos []int32, seen []bool, lo, hi int) diaVerdict {
	rowPtr, rows, nd := m.RowPtr, m.Rows, len(d.Offsets)
	base := d.Offsets[0]
	unseen := len(seen)
	for r := lo; r < hi; {
		e := r
		for e < hi && rowPtr[e+1]-rowPtr[e] == nd {
			e++
		}
		if e > r {
			if !diaBand(d.Data, m.ColIdx, m.Vals, d.Offsets, rowPtr[r], r, e, rows) {
				return diaVerdict{foreign: true}
			}
			unseen, r = 0, e
			continue
		}
		first, end := rowPtr[r], rowPtr[r+1]
		vals := m.Vals[first:end]
		for k, c := range m.ColIdx[first:end] {
			at := c - r - base
			if uint(at) >= uint(len(pos)) {
				return diaVerdict{foreign: true}
			}
			dgi := int(pos[at])
			slot := dgi*rows + r
			if uint(slot) >= uint(len(d.Data)) {
				return diaVerdict{foreign: true}
			}
			d.Data[slot] = vals[k]
			if unseen > 0 && !seen[dgi] {
				seen[dgi] = true
				unseen--
			}
		}
		r++
	}
	return diaVerdict{unseen: unseen}
}

// diaBand places rows [r, e), each holding one entry per diagonal, whose
// entries start at first: it reports whether entry k of every row lies on
// diagonal k (column = row + offsets[k]). The rows' entries are one
// row-major block of e − r rows by len(offsets), and the diagonals'
// stretches for those rows are its columns, so the placement is a transpose:
// four diagonals a pass down the block, each written as a contiguous stretch
// and checked as it is read, then one at a time for the rest. Every slice is
// cut to the run's length first, so the loops carry no bounds checks but the
// one that cuts each row's four entries.
func diaBand[T Float](data []T, colIdx []int, vals []T, offsets []int, first, r, e, rows int) bool {
	n, nd := e-r, len(offsets)
	cols, vs := colIdx[first:first+n*nd], vals[first:first+n*nd]
	miss := 0
	k := 0
	for ; k+4 <= nd; k += 4 {
		d0 := data[k*rows+r:][:n]
		d1 := data[(k+1)*rows+r:][:n]
		d2 := data[(k+2)*rows+r:][:n]
		d3 := data[(k+3)*rows+r:][:n]
		o := offsets[k : k+4 : k+4]
		c0, c1, c2, c3 := r+o[0], r+o[1], r+o[2], r+o[3]
		j := k
		for i := range d0 {
			c, v := cols[j:j+4:j+4], vs[j:j+4:j+4]
			miss |= (c[0] - c0) | (c[1] - c1) | (c[2] - c2) | (c[3] - c3)
			d0[i], d1[i], d2[i], d3[i] = v[0], v[1], v[2], v[3]
			c0, c1, c2, c3 = c0+1, c1+1, c2+1, c3+1
			j += nd
		}
	}
	for ; k < nd; k++ {
		dk := data[k*rows+r:][:n]
		c := r + offsets[k]
		j := k
		for i := range dk {
			miss |= cols[j] - c
			dk[i] = vs[j]
			c++
			j += nd
		}
	}
	return miss == 0
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
	l := Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), MaxDeg: m.MaxRowDegree()}
	return m.ToELLFrom(&l, maxFillRatio, Split{})
}

// ToELLFrom is ToELL for a caller that already holds l = Scan(m).Layout, run
// in the row chunks of sp: every row is padded to the record's maximum row
// degree, which must be m's — a row longer than it, or no row as long, is
// ErrStructureMismatch. When every row holds exactly that many entries —
// RowPtr[r] == r·width throughout, an O(rows) check of m's own row pointers
// that trusts nothing of the record — m's ColIdx and Vals already are the
// row-major ELL arrays, and the result is a view sharing them, as ToCOO's is.
// Any other matrix is copied into padded arrays of its own.
func (m *CSR[T]) ToELLFrom(l *Layout, maxFillRatio float64, sp Split) (*ELL[T], error) {
	l.of(m.Rows, m.Cols, m.NNZ())
	width := l.MaxDeg
	stored := width * m.Rows
	if fillExceeds(stored, m.NNZ(), maxFillRatio) {
		return nil, fmt.Errorf("%w: ELL would store %d elements for %d nonzeros",
			ErrFillExplosion, stored, m.NNZ())
	}
	e := &ELL[T]{Rows: m.Rows, Cols: m.Cols, Width: width}
	if m.ELLView(width) {
		e.ColIdx, e.Data = m.ColIdx[:stored:stored], m.Vals[:stored:stored]
		return e, nil
	}
	e.ColIdx, e.Data = make([]int, stored), make([]T, stored)
	verdicts := make([]ellVerdict, sp.chunks(m.Rows))
	sp.run(m.Rows, func(c, lo, hi int) { verdicts[c] = m.ellRows(e.ColIdx, e.Data, width, lo, hi) })
	reached := width == 0
	for _, v := range verdicts {
		if v.longer {
			return nil, ErrStructureMismatch
		}
		reached = reached || v.reached
	}
	if !reached {
		return nil, ErrStructureMismatch
	}
	return e, nil
}

// ELLView reports whether ToELLFrom, padding to width, returns a view of
// m's own ColIdx and Vals rather than a copy: m has rows and every one holds
// width entries.
func (m *CSR[T]) ELLView(width int) bool {
	if m.Rows == 0 {
		return false
	}
	for r, p := range m.RowPtr {
		if p != r*width {
			return false
		}
	}
	return true
}

// ellVerdict is what one chunk of an ELL conversion learned of the width:
// longer, a row exceeds it; reached, a row is as long.
type ellVerdict struct {
	longer, reached bool
}

// ellRows is ELL's row-range body: it copies rows [lo, hi) into their
// width-long stretches of the row-major colIdx and data, whose padding the
// allocation left zero, and stops at the first row longer than width.
func (m *CSR[T]) ellRows(colIdx []int, data []T, width, lo, hi int) ellVerdict {
	var v ellVerdict
	for r := lo; r < hi; r++ {
		first, end := m.RowPtr[r], m.RowPtr[r+1]
		if end-first >= width {
			if end-first > width {
				return ellVerdict{longer: true}
			}
			v.reached = true
		}
		cols, vals := colIdx[r*width:][:end-first], data[r*width:][:end-first]
		for i, c := range m.ColIdx[first:end] {
			cols[i], vals[i] = c, m.Vals[first+i]
		}
	}
	return v
}

// ToCSR converts ELLPACK storage back to CSR, dropping padding.
func (m *ELL[T]) ToCSR() *CSR[T] {
	var ts []Triple[T]
	for r := 0; r < m.Rows; r++ {
		for k := r * m.Width; k < (r+1)*m.Width; k++ {
			if v := m.Data[k]; v != 0 {
				ts = append(ts, Triple[T]{Row: r, Col: m.ColIdx[k], Val: v})
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
