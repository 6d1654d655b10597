package kernels

import "smat/internal/matrix"

// tileRows is the row-tile size of the grouped diagonal-major traversal
// (diaBlockedRange): 2048 float64 elements of y (16KiB) stay resident in L1
// while every diagonal crosses the tile.
const tileRows = 2048

// diaBlockedRange computes rows [lo, hi) with the diagonal-major traversal
// tiled over rows and grouped over diagonals. Offsets are strictly increasing
// (DIA.Validate), so the rows where every diagonal lies inside the matrix are
// one interval, [-Offsets[0], Cols-Offsets[nd-1]) — a property of the matrix,
// not of the chunk. Over a tile of those interior rows the diagonals are cut
// to the tile (diaCut) and taken in register groups: the leading one to four
// initialise y, the rest follow four at a time, so y is touched once per
// group and the element loops index nothing the compiler has not bounded. The
// rows before and after the interior, where some diagonal leaves the matrix,
// take the guarded row-major loop: padding outside the matrix is never
// multiplied, zero fill inside it is.
//
//smat:hotpath
func diaBlockedRange[T matrix.Float](d *matrix.DIA[T], x, y []T, lo, hi int) {
	nd := len(d.Offsets)
	if nd == 0 {
		clear(y[lo:hi])
		return
	}
	iLo, iHi := max(lo, -d.Offsets[0]), min(hi, d.Cols-d.Offsets[nd-1])
	if iLo >= iHi {
		iLo, iHi = hi, hi // no interior row in the chunk
	}
	diaRowRange(d, x, y, lo, iLo)
	head := (nd-1)&3 + 1
	for rb := iLo; rb < iHi; rb += tileRows {
		yt := y[rb:min(rb+tileRows, iHi)]
		d0, x0 := diaCut(d, x, 0, rb, len(yt))
		switch head {
		case 1:
			for r := range yt {
				yt[r] = d0[r] * x0[r]
			}
		case 2:
			d1, x1 := diaCut(d, x, 1, rb, len(yt))
			for r := range yt {
				yt[r] = d0[r]*x0[r] + d1[r]*x1[r]
			}
		case 3:
			d1, x1 := diaCut(d, x, 1, rb, len(yt))
			d2, x2 := diaCut(d, x, 2, rb, len(yt))
			for r := range yt {
				yt[r] = d0[r]*x0[r] + d1[r]*x1[r] + d2[r]*x2[r]
			}
		case 4:
			d1, x1 := diaCut(d, x, 1, rb, len(yt))
			d2, x2 := diaCut(d, x, 2, rb, len(yt))
			d3, x3 := diaCut(d, x, 3, rb, len(yt))
			for r := range yt {
				yt[r] = (d0[r]*x0[r] + d1[r]*x1[r]) + (d2[r]*x2[r] + d3[r]*x3[r])
			}
		}
		for i := head; i < nd; i += 4 {
			d0, x0 := diaCut(d, x, i, rb, len(yt))
			d1, x1 := diaCut(d, x, i+1, rb, len(yt))
			d2, x2 := diaCut(d, x, i+2, rb, len(yt))
			d3, x3 := diaCut(d, x, i+3, rb, len(yt))
			for r := range yt {
				yt[r] += (d0[r]*x0[r] + d1[r]*x1[r]) + (d2[r]*x2[r] + d3[r]*x3[r])
			}
		}
	}
	diaRowRange(d, x, y, iHi, hi)
}

// diaCut cuts diagonal i and the stretch of x it multiplies to the n interior
// rows from rb.
//
//smat:hotpath
func diaCut[T matrix.Float](d *matrix.DIA[T], x []T, i, rb, n int) (diag, xs []T) {
	return d.Data[i*d.Rows+rb:][:n], x[rb+d.Offsets[i]:][:n]
}

//smat:hotpath
func diaBlockedChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	diaBlockedRange(m.DIA, x, y, lo, hi)
}
