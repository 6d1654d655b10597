package kernels

import "smat/internal/matrix"

// ellWidthRange computes rows [lo, hi) with kernels fully specialised per
// small width: the column-major layout makes each slot a contiguous slice,
// and for widths up to four the row body is straight-line code with no inner
// loop — the scalar-code analogue of the vectorisation that makes ELL
// attractive on SIMD hardware. Wider matrices fall back to the row-major
// loop.
//
//smat:hotpath
func ellWidthRange[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	rows := e.Rows
	switch e.Width {
	case 0:
		clear(y[lo:hi])
	case 1:
		d0, i0 := e.Data, e.ColIdx
		for r := lo; r < hi; r++ {
			y[r] = d0[r] * x[i0[r]]
		}
	case 2:
		d0, i0 := e.Data[:rows], e.ColIdx[:rows]
		d1, i1 := e.Data[rows:], e.ColIdx[rows:]
		for r := lo; r < hi; r++ {
			y[r] = d0[r]*x[i0[r]] + d1[r]*x[i1[r]]
		}
	case 3:
		d0, i0 := e.Data[:rows], e.ColIdx[:rows]
		d1, i1 := e.Data[rows:2*rows], e.ColIdx[rows:2*rows]
		d2, i2 := e.Data[2*rows:], e.ColIdx[2*rows:]
		for r := lo; r < hi; r++ {
			y[r] = d0[r]*x[i0[r]] + d1[r]*x[i1[r]] + d2[r]*x[i2[r]]
		}
	case 4:
		d0, i0 := e.Data[:rows], e.ColIdx[:rows]
		d1, i1 := e.Data[rows:2*rows], e.ColIdx[rows:2*rows]
		d2, i2 := e.Data[2*rows:3*rows], e.ColIdx[2*rows:3*rows]
		d3, i3 := e.Data[3*rows:], e.ColIdx[3*rows:]
		for r := lo; r < hi; r++ {
			y[r] = (d0[r]*x[i0[r]] + d1[r]*x[i1[r]]) + (d2[r]*x[i2[r]] + d3[r]*x[i3[r]])
		}
	default:
		ellRowRange(e, x, y, lo, hi)
	}
}

//smat:hotpath
func ellWidthChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellWidthRange(m.ELL, x, y, lo, hi)
}
