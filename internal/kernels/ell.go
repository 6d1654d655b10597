package kernels

import "smat/internal/matrix"

// runELLBasic is the paper's Figure 2(d) loop on the row-major layout: each
// row's Width slots in order, accumulated from +0. Padding slots carry value
// 0 and contribute nothing.
//
//smat:hotpath
func runELLBasic[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	ellRowRange(m.ELL, x, y, 0, m.ELL.Rows)
}

// runELLUnroll4 unrolls the row loop by four: four rows' slots side by side,
// each row on an accumulator of its own.
//
//smat:hotpath
func runELLUnroll4[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	e := m.ELL
	w := e.Width
	r := 0
	for ; r+4 <= e.Rows; r += 4 {
		data, idx := e.Data[r*w:(r+4)*w], e.ColIdx[r*w:(r+4)*w]
		var s0, s1, s2, s3 T
		for n := 0; n < w; n++ {
			s0 += data[n] * x[idx[n]]
			s1 += data[w+n] * x[idx[w+n]]
			s2 += data[2*w+n] * x[idx[2*w+n]]
			s3 += data[3*w+n] * x[idx[3*w+n]]
		}
		y[r], y[r+1], y[r+2], y[r+3] = s0, s1, s2, s3
	}
	ellRowRange(e, x, y, r, e.Rows)
}

// ellRowRange computes rows [lo, hi): one pass over each row's slots, writing
// y once per row.
//
//smat:hotpath
func ellRowRange[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w := e.Width
	for r := lo; r < hi; r++ {
		var sum T
		for k := r * w; k < (r+1)*w; k++ {
			sum += e.Data[k] * x[e.ColIdx[k]]
		}
		y[r] = sum
	}
}

// ellRowRangeUnroll4 unrolls the slot loop by four within each row.
//
//smat:hotpath
func ellRowRangeUnroll4[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w := e.Width
	for r := lo; r < hi; r++ {
		data, idx := e.Data[r*w:(r+1)*w], e.ColIdx[r*w:(r+1)*w]
		var s0, s1, s2, s3 T
		n := 0
		for ; n+4 <= w; n += 4 {
			s0 += data[n] * x[idx[n]]
			s1 += data[n+1] * x[idx[n+1]]
			s2 += data[n+2] * x[idx[n+2]]
			s3 += data[n+3] * x[idx[n+3]]
		}
		for ; n < w; n++ {
			s0 += data[n] * x[idx[n]]
		}
		y[r] = (s0 + s1) + (s2 + s3)
	}
}

//smat:hotpath
func ellChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellRowRange(m.ELL, x, y, lo, hi)
}

//smat:hotpath
func ellChunkUnroll4[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellRowRangeUnroll4(m.ELL, x, y, lo, hi)
}

// ellFamily is the ELL table, shaped like diaFamily: ell_basic and
// ell_unroll4 are the paper's whole-matrix loops, hand-written, with no
// partitioned form.
func ellFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatELL,
		single: []body[T]{
			{name: "ell", alone: "_basic", run: runELLBasic[T],
				over: []partition{whole}},
			{name: "ell", suffix: "_unroll4", strat: StratUnroll4, run: runELLUnroll4[T],
				over: []partition{whole}},
			{name: "ell", alone: "_rowmajor", strat: StratRowMajor, chunk: ellChunk[T],
				over: []partition{whole, byRows}},
			{name: "ell", suffix: "_unroll4", strat: StratRowMajor | StratUnroll4, chunk: ellChunkUnroll4[T],
				over: []partition{byRows}},
			{name: "ell_width", strat: StratWidthSpec, chunk: ellWidthChunk[T],
				over: []partition{whole, byRows}},
		},
		batch: []body[T]{
			{name: "ell_batch", chunk: ellBatchChunk[T],
				over: []partition{whole, byRows}},
		},
	}
}
