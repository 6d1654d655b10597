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
//
//smat:hotpath
func csrRowRangeUnroll4[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		var s0, s1, s2, s3 T
		jj := start
		for ; jj+4 <= end; jj += 4 {
			s0 += x[colIdx[jj]] * vals[jj]
			s1 += x[colIdx[jj+1]] * vals[jj+1]
			s2 += x[colIdx[jj+2]] * vals[jj+2]
			s3 += x[colIdx[jj+3]] * vals[jj+3]
		}
		for ; jj < end; jj++ {
			s0 += x[colIdx[jj]] * vals[jj]
		}
		y[i] = (s0 + s1) + (s2 + s3)
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
// searched unroll space (UnrollDepths): the same independent-partial-sum
// shape as csrRowRangeUnroll4 at depth two and eight.
//
//smat:hotpath
func csrRowRangeUnroll2[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		var s0, s1 T
		jj := start
		for ; jj+2 <= end; jj += 2 {
			s0 += x[colIdx[jj]] * vals[jj]
			s1 += x[colIdx[jj+1]] * vals[jj+1]
		}
		for ; jj < end; jj++ {
			s0 += x[colIdx[jj]] * vals[jj]
		}
		y[i] = s0 + s1
	}
}

//smat:hotpath
func csrRowRangeUnroll8[T matrix.Float](m *matrix.CSR[T], x, y []T, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		jj := start
		for ; jj+8 <= end; jj += 8 {
			s0 += x[colIdx[jj]] * vals[jj]
			s1 += x[colIdx[jj+1]] * vals[jj+1]
			s2 += x[colIdx[jj+2]] * vals[jj+2]
			s3 += x[colIdx[jj+3]] * vals[jj+3]
			s4 += x[colIdx[jj+4]] * vals[jj+4]
			s5 += x[colIdx[jj+5]] * vals[jj+5]
			s6 += x[colIdx[jj+6]] * vals[jj+6]
			s7 += x[colIdx[jj+7]] * vals[jj+7]
		}
		for ; jj < end; jj++ {
			s0 += x[colIdx[jj]] * vals[jj]
		}
		y[i] = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
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
// threaded tuner binds. The batched bodies are in csr_batch.go.
func csrFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatCSR,
		single: []body[T]{
			{name: "csr", alone: "_basic", chunk: csrChunk[T],
				over: []partition{whole, byRows, byNNZ}, threaded: byNNZ},
			{name: "csr", suffix: "_unroll4", strat: StratUnroll4, chunk: csrChunkUnroll4[T],
				over: []partition{whole, byRows, byNNZ}, threaded: byNNZ},
			{name: "csr", suffix: "_u2", strat: StratUnroll4, params: Params{Unroll: 2}, chunk: csrChunkUnroll2[T],
				over: []partition{byNNZ}},
			{name: "csr", suffix: "_u8", strat: StratUnroll4, params: Params{Unroll: 8}, chunk: csrChunkUnroll8[T],
				over: []partition{byNNZ}},
		},
		batch: []body[T]{
			{name: "csr_batch", chunk: csrBatchChunk[T],
				over: []partition{whole, byNNZSole}},
			{name: "csr_batch", suffix: "_unroll4", strat: StratUnroll4, chunk: csrBatchChunkUnroll4[T],
				over: []partition{whole, byNNZSole}},
		},
	}
}
