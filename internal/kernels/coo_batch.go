package kernels

import "smat/internal/matrix"

// cooBatchRange accumulates entries [lo, hi) into yb for k interleaved
// right-hand sides, one walk over the entries (batch.go): the three arrays
// are cut to the chunk and to one length, and each entry updates its row of
// yb from its row of xb in lanes of constant width — eight columns, then
// four, then the last three, two or one together — each lane cutting both
// rows once. Callers must have zeroed the affected rows of yb. Per column
// the products are added in entry order (cooRange's order), so k=1 is
// bit-for-bit coo_basic.
//
//smat:hotpath
func cooBatchRange[T matrix.Float](m *matrix.COO[T], xb, yb []T, k, lo, hi int) {
	rows := m.RowIdx[lo:hi]
	cols, vals := m.ColIdx[lo:hi][:len(rows)], m.Vals[lo:hi][:len(rows)]
	for n, r := range rows {
		v, p, q := vals[n], r*k, cols[n]*k
		for end := p + k; p+8 <= end; p, q = p+8, q+8 {
			y, a := yb[p:p+8:p+8], xb[q:q+8:q+8]
			y[0], y[1], y[2], y[3] = y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2], y[3]+v*a[3]
			y[4], y[5], y[6], y[7] = y[4]+v*a[4], y[5]+v*a[5], y[6]+v*a[6], y[7]+v*a[7]
		}
		if k&4 != 0 {
			y, a := yb[p:p+4:p+4], xb[q:q+4:q+4]
			y[0], y[1], y[2], y[3] = y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2], y[3]+v*a[3]
			p, q = p+4, q+4
		}
		switch k & 3 {
		case 3:
			y, a := yb[p:p+3:p+3], xb[q:q+3:q+3]
			y[0], y[1], y[2] = y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2]
		case 2:
			y, a := yb[p:p+2:p+2], xb[q:q+2:q+2]
			y[0], y[1] = y[0]+v*a[0], y[1]+v*a[1]
		case 1:
			yb[p] += v * xb[q]
		}
	}
}

// cooBatchChunk clears and accumulates the rows owned by entry chunk
// [lo, hi); chunk boundaries fall on row boundaries (cooBounds), so the
// scaled row ranges never overlap across concurrent chunks.
//
//smat:hotpath
func cooBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	rLo, rHi := cooChunkRows(m.COO, lo, hi)
	clear(yb[rLo*k : rHi*k])
	cooBatchRange(m.COO, xb, yb, k, lo, hi)
}
