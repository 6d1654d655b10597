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
// as the scalar loop does (only the index arithmetic is unrolled).
//
//smat:hotpath
func cooRangeUnroll4[T matrix.Float](m *matrix.COO[T], x, y []T, lo, hi int) {
	rows, cols, vals := m.RowIdx, m.ColIdx, m.Vals
	i := lo
	for ; i+4 <= hi; i += 4 {
		y[rows[i]] += vals[i] * x[cols[i]]
		y[rows[i+1]] += vals[i+1] * x[cols[i+1]]
		y[rows[i+2]] += vals[i+2] * x[cols[i+2]]
		y[rows[i+3]] += vals[i+3] * x[cols[i+3]]
	}
	for ; i < hi; i++ {
		y[rows[i]] += vals[i] * x[cols[i]]
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
