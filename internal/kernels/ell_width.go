package kernels

import "smat/internal/matrix"

// ellWidthRange computes rows [lo, hi) with diaBlockedRange's traversal over
// ELL's column-major slots: a tile of rows at a time, the slots cut to the
// tile (ellCut) and taken in register groups — the leading one to four
// initialise y, the rest follow four at a time. A matrix of width one to four
// is its leading group alone: straight-line code with no slot loop, the
// scalar-code analogue of the vectorisation that makes ELL attractive on SIMD
// hardware. The only check left per element is the x[col] gather. Every row
// of an ELL matrix holds all its slots, so there are no boundary rows; padding
// slots carry value 0 at column 0 and are multiplied like any other.
//
//smat:hotpath
func ellWidthRange[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w := e.Width
	if w == 0 {
		clear(y[lo:hi])
		return
	}
	head := (w-1)&3 + 1
	for rb := lo; rb < hi; rb += tileRows {
		yt := y[rb:min(rb+tileRows, hi)]
		d0, i0 := ellCut(e, 0, rb, len(yt))
		switch head {
		case 1:
			for r := range yt {
				yt[r] = d0[r] * x[i0[r]]
			}
		case 2:
			d1, i1 := ellCut(e, 1, rb, len(yt))
			for r := range yt {
				yt[r] = d0[r]*x[i0[r]] + d1[r]*x[i1[r]]
			}
		case 3:
			d1, i1 := ellCut(e, 1, rb, len(yt))
			d2, i2 := ellCut(e, 2, rb, len(yt))
			for r := range yt {
				yt[r] = d0[r]*x[i0[r]] + d1[r]*x[i1[r]] + d2[r]*x[i2[r]]
			}
		case 4:
			d1, i1 := ellCut(e, 1, rb, len(yt))
			d2, i2 := ellCut(e, 2, rb, len(yt))
			d3, i3 := ellCut(e, 3, rb, len(yt))
			for r := range yt {
				yt[r] = (d0[r]*x[i0[r]] + d1[r]*x[i1[r]]) + (d2[r]*x[i2[r]] + d3[r]*x[i3[r]])
			}
		}
		for s := head; s < w; s += 4 {
			d0, i0 := ellCut(e, s, rb, len(yt))
			d1, i1 := ellCut(e, s+1, rb, len(yt))
			d2, i2 := ellCut(e, s+2, rb, len(yt))
			d3, i3 := ellCut(e, s+3, rb, len(yt))
			for r := range yt {
				yt[r] += (d0[r]*x[i0[r]] + d1[r]*x[i1[r]]) + (d2[r]*x[i2[r]] + d3[r]*x[i3[r]])
			}
		}
	}
}

// ellCut cuts slot s's values and columns to the n rows from rb.
//
//smat:hotpath
func ellCut[T matrix.Float](e *matrix.ELL[T], s, rb, n int) (data []T, idx []int) {
	return e.Data[s*e.Rows+rb:][:n], e.ColIdx[s*e.Rows+rb:][:n]
}

//smat:hotpath
func ellWidthChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellWidthRange(m.ELL, x, y, lo, hi)
}
