package kernels

import "smat/internal/matrix"

// csrRowRange computes y for rows [lo, hi): the paper's Figure 2(a) loop.
//
//smat:hotpath
func csrRowRange[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		var sum T
		for jj := rowPtr[i]; jj < rowPtr[i+1]; jj++ {
			sum += x[colIdx[jj]] * vals[jj]
		}
		y[i] = sum
	}
}

// csrRowRangeUnroll4 is csrRowRange with the inner product unrolled by four,
// accumulating into independent partial sums to break the dependence chain.
// Rows are contiguous in ColIdx and Vals — RowPtr[i+1] is row i's end and row
// i+1's start — so the entry cursor jj runs on across rows and only each
// row's end is loaded. A group of four is cut from both arrays at once
// (c, v: one slice check each in place of four index checks) and the tail is
// cut to one length — only where there is one: the cut costs three slice
// checks, a quarter more time on rows of exactly four — so the only check left
// per element is the x[col] gather.
//
//smat:hotpath
func csrRowRangeUnroll4[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	colIdx, vals := m.ColIdx, m.Vals
	yt := y[lo:hi]
	ends := m.RowPtr[lo+1:][:len(yt)]
	jj := m.RowPtr[lo]
	for i, end := range ends {
		var s0, s1, s2, s3 T
		for ; jj+4 <= end; jj += 4 {
			c, v := colIdx[jj:jj+4:jj+4], vals[jj:jj+4:jj+4]
			s0 += x[c[0]] * v[0]
			s1 += x[c[1]] * v[1]
			s2 += x[c[2]] * v[2]
			s3 += x[c[3]] * v[3]
		}
		if jj < end {
			c := colIdx[jj:end]
			v := vals[jj:end][:len(c)]
			for k, col := range c {
				s0 += x[col] * v[k]
			}
			jj = end
		}
		yt[i] = (s0 + s1) + (s2 + s3)
	}
}

// csrChunk / csrChunkUnroll4 adapt the row loops to the table's chunk
// signature (top-level functions so pool dispatch never allocates).
//
//smat:hotpath
func csrChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	csrRowRange(m.CSR, x, y, lo, hi)
}

//smat:hotpath
func csrChunkUnroll4[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	csrRowRangeUnroll4(m.CSR, x, y, lo, hi)
}

// csrRowRangeUnroll2 / csrRowRangeUnroll8 are the remaining points of the
// searched unroll space (UnrollDepths): csrRowRangeUnroll4's shape — the
// running cursor, the group cut, the tail cut — at depth two and eight.
//
//smat:hotpath
func csrRowRangeUnroll2[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	colIdx, vals := m.ColIdx, m.Vals
	yt := y[lo:hi]
	ends := m.RowPtr[lo+1:][:len(yt)]
	jj := m.RowPtr[lo]
	for i, end := range ends {
		var s0, s1 T
		for ; jj+2 <= end; jj += 2 {
			c, v := colIdx[jj:jj+2:jj+2], vals[jj:jj+2:jj+2]
			s0 += x[c[0]] * v[0]
			s1 += x[c[1]] * v[1]
		}
		if jj < end {
			c := colIdx[jj:end]
			v := vals[jj:end][:len(c)]
			for k, col := range c {
				s0 += x[col] * v[k]
			}
			jj = end
		}
		yt[i] = s0 + s1
	}
}

//smat:hotpath
func csrRowRangeUnroll8[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	colIdx, vals := m.ColIdx, m.Vals
	yt := y[lo:hi]
	ends := m.RowPtr[lo+1:][:len(yt)]
	jj := m.RowPtr[lo]
	for i, end := range ends {
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		for ; jj+8 <= end; jj += 8 {
			c, v := colIdx[jj:jj+8:jj+8], vals[jj:jj+8:jj+8]
			s0 += x[c[0]] * v[0]
			s1 += x[c[1]] * v[1]
			s2 += x[c[2]] * v[2]
			s3 += x[c[3]] * v[3]
			s4 += x[c[4]] * v[4]
			s5 += x[c[5]] * v[5]
			s6 += x[c[6]] * v[6]
			s7 += x[c[7]] * v[7]
		}
		if jj < end {
			c := colIdx[jj:end]
			v := vals[jj:end][:len(c)]
			for k, col := range c {
				s0 += x[col] * v[k]
			}
			jj = end
		}
		yt[i] = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	}
}

//smat:hotpath
func csrChunkUnroll2[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	csrRowRangeUnroll2(m.CSR, x, y, lo, hi)
}

//smat:hotpath
func csrChunkUnroll8[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	csrRowRangeUnroll8(m.CSR, x, y, lo, hi)
}

// csrFamily is the CSR table. Single-vector bodies run over even rows and
// over nnz-balanced rows; the searched unroll depths the built-in bodies do
// not cover (UnrollDepths) exist in the nnz-balanced form only, the one a
// model names. The batched bodies are in csr_batch.go.
func csrFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatCSR,
		single: []body[T]{
			{name: "csr", alone: "_basic", chunk: csrChunk[T],
				over: []partition{whole, byRows, byNNZ}},
			{name: "csr", suffix: "_unroll4", strat: StratUnroll4, chunk: csrChunkUnroll4[T],
				over: []partition{whole, byRows, byNNZ}},
			{name: "csr", suffix: "_u2", strat: StratUnroll4, params: Params{Unroll: 2}, chunk: csrChunkUnroll2[T],
				over: []partition{byNNZ}},
			{name: "csr", suffix: "_u8", strat: StratUnroll4, params: Params{Unroll: 8}, chunk: csrChunkUnroll8[T],
				over: []partition{byNNZ}},
		},
		batch: []body[T]{
			{name: "csr_batch", chunk: csrBatchChunk[T],
				over: []partition{whole, byNNZSole}},
		},
	}
}
