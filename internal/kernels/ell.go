package kernels

import "smat/internal/matrix"

// runELLBasic is the paper's Figure 2(d) loop: column(slot)-major traversal
// of the packed dense matrix. Padding slots carry value 0 and contribute
// nothing.
//
//smat:hotpath
func runELLBasic[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	e := m.ELL
	clear(y)
	for n := 0; n < e.Width; n++ {
		data := e.Data[n*e.Rows : (n+1)*e.Rows]
		idx := e.ColIdx[n*e.Rows : (n+1)*e.Rows]
		for i := 0; i < e.Rows; i++ {
			y[i] += data[i] * x[idx[i]]
		}
	}
}

// runELLUnroll4 unrolls the slot-major row loop by four.
//
//smat:hotpath
func runELLUnroll4[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	e := m.ELL
	clear(y)
	for n := 0; n < e.Width; n++ {
		data := e.Data[n*e.Rows : (n+1)*e.Rows]
		idx := e.ColIdx[n*e.Rows : (n+1)*e.Rows]
		i := 0
		for ; i+4 <= e.Rows; i += 4 {
			y[i] += data[i] * x[idx[i]]
			y[i+1] += data[i+1] * x[idx[i+1]]
			y[i+2] += data[i+2] * x[idx[i+2]]
			y[i+3] += data[i+3] * x[idx[i+3]]
		}
		for ; i < e.Rows; i++ {
			y[i] += data[i] * x[idx[i]]
		}
	}
}

// ellRowRange computes rows [lo, hi) row-major: one pass over each row's
// slots, writing y once per row.
//
//smat:hotpath
func ellRowRange[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	for r := lo; r < hi; r++ {
		var sum T
		for n := 0; n < e.Width; n++ {
			sum += e.Data[n*e.Rows+r] * x[e.ColIdx[n*e.Rows+r]]
		}
		y[r] = sum
	}
}

// ellRowRangeUnroll4 unrolls the slot loop by four within each row.
//
//smat:hotpath
func ellRowRangeUnroll4[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w, rows := e.Width, e.Rows
	for r := lo; r < hi; r++ {
		var s0, s1, s2, s3 T
		n := 0
		for ; n+4 <= w; n += 4 {
			s0 += e.Data[n*rows+r] * x[e.ColIdx[n*rows+r]]
			s1 += e.Data[(n+1)*rows+r] * x[e.ColIdx[(n+1)*rows+r]]
			s2 += e.Data[(n+2)*rows+r] * x[e.ColIdx[(n+2)*rows+r]]
			s3 += e.Data[(n+3)*rows+r] * x[e.ColIdx[(n+3)*rows+r]]
		}
		for ; n < w; n++ {
			s0 += e.Data[n*rows+r] * x[e.ColIdx[n*rows+r]]
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

// ellRowRangeUnroll2 / ellRowRangeUnroll8 extend the slot-loop unrolling to
// the remaining searched depths (UnrollDepths).
//
//smat:hotpath
func ellRowRangeUnroll2[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w, rows := e.Width, e.Rows
	for r := lo; r < hi; r++ {
		var s0, s1 T
		n := 0
		for ; n+2 <= w; n += 2 {
			s0 += e.Data[n*rows+r] * x[e.ColIdx[n*rows+r]]
			s1 += e.Data[(n+1)*rows+r] * x[e.ColIdx[(n+1)*rows+r]]
		}
		for ; n < w; n++ {
			s0 += e.Data[n*rows+r] * x[e.ColIdx[n*rows+r]]
		}
		y[r] = s0 + s1
	}
}

//smat:hotpath
func ellRowRangeUnroll8[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w, rows := e.Width, e.Rows
	for r := lo; r < hi; r++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		n := 0
		for ; n+8 <= w; n += 8 {
			s0 += e.Data[n*rows+r] * x[e.ColIdx[n*rows+r]]
			s1 += e.Data[(n+1)*rows+r] * x[e.ColIdx[(n+1)*rows+r]]
			s2 += e.Data[(n+2)*rows+r] * x[e.ColIdx[(n+2)*rows+r]]
			s3 += e.Data[(n+3)*rows+r] * x[e.ColIdx[(n+3)*rows+r]]
			s4 += e.Data[(n+4)*rows+r] * x[e.ColIdx[(n+4)*rows+r]]
			s5 += e.Data[(n+5)*rows+r] * x[e.ColIdx[(n+5)*rows+r]]
			s6 += e.Data[(n+6)*rows+r] * x[e.ColIdx[(n+6)*rows+r]]
			s7 += e.Data[(n+7)*rows+r] * x[e.ColIdx[(n+7)*rows+r]]
		}
		for ; n < w; n++ {
			s0 += e.Data[n*rows+r] * x[e.ColIdx[n*rows+r]]
		}
		y[r] = ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
	}
}

//smat:hotpath
func ellChunkUnroll2[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellRowRangeUnroll2(m.ELL, x, y, lo, hi)
}

//smat:hotpath
func ellChunkUnroll8[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellRowRangeUnroll8(m.ELL, x, y, lo, hi)
}

// ellFamily is the ELL table, shaped like diaFamily: ell_basic and
// ell_unroll4 are the paper's slot-major traversals, hand-written and handed
// over to the row-major body above one thread.
func ellFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatELL,
		single: []body[T]{
			{name: "ell", alone: "_basic", run: runELLBasic[T],
				over: []partition{whole}, threaded: byRows},
			{name: "ell", suffix: "_unroll4", strat: StratUnroll4, run: runELLUnroll4[T],
				over: []partition{whole}, threaded: byRows},
			{name: "ell", alone: "_rowmajor", strat: StratRowMajor, chunk: ellChunk[T],
				over: []partition{whole, byRows}, threaded: byRows},
			{name: "ell", suffix: "_unroll4", strat: StratRowMajor | StratUnroll4, chunk: ellChunkUnroll4[T],
				over: []partition{byRows}},
			{name: "ell_width", strat: StratWidthSpec, chunk: ellWidthChunk[T],
				over: []partition{whole, byRows}, threaded: byRows},
			{name: "ell", suffix: "_u2", strat: StratRowMajor | StratUnroll4, params: Params{Unroll: 2}, chunk: ellChunkUnroll2[T],
				over: []partition{byRows}},
			{name: "ell", suffix: "_u8", strat: StratRowMajor | StratUnroll4, params: Params{Unroll: 8}, chunk: ellChunkUnroll8[T],
				over: []partition{byRows}},
		},
		batch: []body[T]{
			{name: "ell_batch", chunk: ellBatchChunk[T],
				over: []partition{whole, byRows}},
		},
	}
}
