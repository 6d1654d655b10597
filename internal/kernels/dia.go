package kernels

import "smat/internal/matrix"

// runDIABasic is the paper's Figure 2(c) loop: diagonal-major traversal with
// contiguous x reads, accumulating into y once per diagonal.
//
//smat:hotpath
func runDIABasic[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	d := m.DIA
	clear(y)
	for i, k := range d.Offsets {
		iStart := max(0, -k)
		jStart := max(0, k)
		n := min(d.Rows-iStart, d.Cols-jStart)
		diag := d.Data[i*d.Rows:]
		for t := 0; t < n; t++ {
			y[iStart+t] += diag[iStart+t] * x[jStart+t]
		}
	}
}

// runDIAUnroll4 unrolls the per-diagonal loop by four.
//
//smat:hotpath
func runDIAUnroll4[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	d := m.DIA
	clear(y)
	for i, k := range d.Offsets {
		iStart := max(0, -k)
		jStart := max(0, k)
		n := min(d.Rows-iStart, d.Cols-jStart)
		diag := d.Data[i*d.Rows:]
		t := 0
		for ; t+4 <= n; t += 4 {
			y[iStart+t] += diag[iStart+t] * x[jStart+t]
			y[iStart+t+1] += diag[iStart+t+1] * x[jStart+t+1]
			y[iStart+t+2] += diag[iStart+t+2] * x[jStart+t+2]
			y[iStart+t+3] += diag[iStart+t+3] * x[jStart+t+3]
		}
		for ; t < n; t++ {
			y[iStart+t] += diag[iStart+t] * x[jStart+t]
		}
	}
}

// diaRowRange computes rows [lo, hi) with a row-major traversal: each y
// element is written exactly once (the paper's note that diagonal-order loops
// re-write Y per diagonal motivates this variant).
//
//smat:hotpath
func diaRowRange[T matrix.Float](d *matrix.DIA[T], x, y []T, lo, hi int) {
	for r := lo; r < hi; r++ {
		var sum T
		for i, k := range d.Offsets {
			c := r + k
			if c >= 0 && c < d.Cols {
				sum += d.Data[i*d.Rows+r] * x[c]
			}
		}
		y[r] = sum
	}
}

// diaRowRangeUnroll4 unrolls the diagonal loop by four within each row.
//
//smat:hotpath
func diaRowRangeUnroll4[T matrix.Float](d *matrix.DIA[T], x, y []T, lo, hi int) {
	nd := len(d.Offsets)
	for r := lo; r < hi; r++ {
		var s0, s1, s2, s3 T
		i := 0
		for ; i+4 <= nd; i += 4 {
			if c := r + d.Offsets[i]; c >= 0 && c < d.Cols {
				s0 += d.Data[i*d.Rows+r] * x[c]
			}
			if c := r + d.Offsets[i+1]; c >= 0 && c < d.Cols {
				s1 += d.Data[(i+1)*d.Rows+r] * x[c]
			}
			if c := r + d.Offsets[i+2]; c >= 0 && c < d.Cols {
				s2 += d.Data[(i+2)*d.Rows+r] * x[c]
			}
			if c := r + d.Offsets[i+3]; c >= 0 && c < d.Cols {
				s3 += d.Data[(i+3)*d.Rows+r] * x[c]
			}
		}
		for ; i < nd; i++ {
			if c := r + d.Offsets[i]; c >= 0 && c < d.Cols {
				s0 += d.Data[i*d.Rows+r] * x[c]
			}
		}
		y[r] = (s0 + s1) + (s2 + s3)
	}
}

//smat:hotpath
func diaChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	diaRowRange(m.DIA, x, y, lo, hi)
}

//smat:hotpath
func diaChunkUnroll4[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	diaRowRangeUnroll4(m.DIA, x, y, lo, hi)
}

// diaFamily is the DIA table. dia_basic and dia_unroll4 are the paper's
// diagonal-major traversals, hand-written runners with no partitioned form;
// a model names a partitioned row-major body instead. The row-major
// unrolled bodies exist only partitioned. The batched body (dia_batch.go)
// is row-ranged, dia_blocked's tile traversal inside its chunk, and carries no
// traversal bit.
func diaFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatDIA,
		single: []body[T]{
			{name: "dia", alone: "_basic", run: runDIABasic[T],
				over: []partition{whole}},
			{name: "dia", suffix: "_unroll4", strat: StratUnroll4, run: runDIAUnroll4[T],
				over: []partition{whole}},
			{name: "dia", alone: "_rowmajor", strat: StratRowMajor, chunk: diaChunk[T],
				over: []partition{whole, byRows}},
			{name: "dia", suffix: "_unroll4", strat: StratRowMajor | StratUnroll4, chunk: diaChunkUnroll4[T],
				over: []partition{byRows}},
			{name: "dia_blocked", strat: StratCacheBlock, chunk: diaBlockedChunk[T],
				over: []partition{whole, byRows}},
		},
		batch: []body[T]{
			{name: "dia_batch", chunk: diaBatchChunk[T],
				over: []partition{whole, byRows}},
		},
	}
}
