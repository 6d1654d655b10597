package kernels

import "smat/internal/matrix"

// cooRange accumulates entries [lo, hi) into y: the paper's Figure 2(b) loop.
// Callers must have zeroed the affected rows of y.
//
//smat:hotpath
func cooRange[T matrix.Float](m *matrix.COO[T], x, y []T, lo, hi int) {
	rows, cols, vals := m.RowIdx, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		y[rows[i]] += vals[i] * x[cols[i]]
	}
}

// cooRangeUnroll4 is cooRange unrolled by four. Entries are row-sorted, so
// consecutive entries may hit the same y element; the unrolled body keeps the
// read-modify-write order per element by accumulating through memory exactly
// as the scalar loop does (only the index arithmetic is unrolled). The three
// arrays are cut to the chunk and to one length, and a group of four is cut
// from each at once (one slice check for the three), so the checks left per
// element are the two gathers, y[row] and x[col].
//
//smat:hotpath
func cooRangeUnroll4[T matrix.Float](m *matrix.COO[T], x, y []T, lo, hi int) {
	rows := m.RowIdx[lo:hi]
	cols, vals := m.ColIdx[lo:hi][:len(rows)], m.Vals[lo:hi][:len(rows)]
	i := 0
	for ; i+4 <= len(rows); i += 4 {
		r, c, v := rows[i:i+4:i+4], cols[i:i+4:i+4], vals[i:i+4:i+4]
		y[r[0]] += v[0] * x[c[0]]
		y[r[1]] += v[1] * x[c[1]]
		y[r[2]] += v[2] * x[c[2]]
		y[r[3]] += v[3] * x[c[3]]
	}
	rows, cols, vals = rows[i:], cols[i:], vals[i:]
	for k, r := range rows {
		y[r] += vals[k] * x[cols[k]]
	}
}

// cooBounds splits the entry range into roughly nnz-balanced chunks whose
// boundaries fall on row boundaries, so concurrent chunks never write the
// same y element. Computed once per matrix by the execution plan.
func cooBounds[T matrix.Float](m *matrix.COO[T], threads int) []int {
	nnz := m.NNZ()
	if threads < 1 {
		threads = 1
	}
	bounds := []int{0}
	for t := 1; t < threads; t++ {
		b := nnz * t / threads
		if b <= bounds[len(bounds)-1] {
			continue
		}
		// Advance to the next row boundary.
		for b < nnz && m.RowIdx[b] == m.RowIdx[b-1] {
			b++
		}
		if b > bounds[len(bounds)-1] && b < nnz {
			bounds = append(bounds, b)
		}
	}
	bounds = append(bounds, nnz)
	return bounds
}

// cooChunkRows returns the half-open row range owned by the entry chunk
// [lo, hi): from the chunk's first row up to the next chunk's first row.
// Leading empty rows attach to the first chunk and every gap attaches to the
// chunk before it, so chunk-local clears cover each row of y exactly once.
//
//smat:hotpath
func cooChunkRows[T matrix.Float](c *matrix.COO[T], lo, hi int) (rLo, rHi int) {
	rLo = 0
	if lo > 0 {
		rLo = c.RowIdx[lo]
	}
	rHi = c.Rows
	if hi < len(c.RowIdx) {
		rHi = c.RowIdx[hi]
	}
	return rLo, rHi
}

//smat:hotpath
func cooChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	rLo, rHi := cooChunkRows(m.COO, lo, hi)
	clear(y[rLo:rHi])
	cooRange(m.COO, x, y, lo, hi)
}

//smat:hotpath
func cooChunkUnroll4[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	rLo, rHi := cooChunkRows(m.COO, lo, hi)
	clear(y[rLo:rHi])
	cooRangeUnroll4(m.COO, x, y, lo, hi)
}

// cooFamily is the COO table. A COO chunk clears the rows it owns before it
// accumulates, so the unsplit instance — one chunk over every entry — clears
// all of y: the serial kernel and the parallel kernel's chunk are one body.
func cooFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatCOO,
		single: []body[T]{
			{name: "coo", alone: "_basic", chunk: cooChunk[T],
				over: []partition{whole, byEntries}, threaded: byEntries},
			{name: "coo", suffix: "_unroll4", strat: StratUnroll4, chunk: cooChunkUnroll4[T],
				over: []partition{whole, byEntries}, threaded: byEntries},
		},
		batch: []body[T]{
			{name: "coo_batch", chunk: cooBatchChunk[T],
				over: []partition{whole, byEntries}},
		},
	}
}
