package kernels

import "smat/internal/matrix"

// csrBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides, one walk over each row per lane (batch.go): the row's
// entries are cut once (cols, vs), eight accumulators take eight columns per
// entry, then four, then the last three, two or one together, each entry's
// stretch of xb cut to the lane's constant width — the one check per entry
// and lane. The eight-wide lane cuts xb twice, four and four: the second
// check splits the loop body in two, so a half's four products are live at a
// time and the eight accumulators stay in registers (one cut of eight spills
// two of them; neither form moves the k=8 time beyond the box's noise, the
// lanes below eight are where this body beats the indexed cascade). Per
// column the products are added in entry order from +0 (csrRowRange's order),
// so k=1 is bit-for-bit csr_basic.
//
//smat:hotpath
func csrBatchRange[T matrix.Float](m *matrix.CSR[T], xb, yb []T, k, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		cols := colIdx[start:end]
		vs := vals[start:end][:len(cols)]
		yr := yb[i*k:][:k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for n, c := range cols {
				p := c*k + j
				v, a := vs[n], xb[p:p+4:p+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				b := xb[p+4 : p+8 : p+8]
				s4, s5, s6, s7 = s4+v*b[0], s5+v*b[1], s6+v*b[2], s7+v*b[3]
			}
			y := yr[j : j+8 : j+8]
			y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
		if j+4 <= k {
			var s0, s1, s2, s3 T
			for n, c := range cols {
				p := c*k + j
				v, a := vs[n], xb[p:p+4:p+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			y := yr[j : j+4 : j+4]
			y[0], y[1], y[2], y[3] = s0, s1, s2, s3
			j += 4
		}
		switch k - j {
		case 3:
			var s0, s1, s2 T
			for n, c := range cols {
				p := c*k + j
				v, a := vs[n], xb[p:p+3:p+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			y := yr[j : j+3 : j+3]
			y[0], y[1], y[2] = s0, s1, s2
		case 2:
			var s0, s1 T
			for n, c := range cols {
				p := c*k + j
				v, a := vs[n], xb[p:p+2:p+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			y := yr[j : j+2 : j+2]
			y[0], y[1] = s0, s1
		case 1:
			var s T
			for n, c := range cols {
				s += vs[n] * xb[c*k+j]
			}
			yr[j] = s
		}
	}
}

//smat:hotpath
func csrBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	csrBatchRange(m.CSR, xb, yb, k, lo, hi)
}
