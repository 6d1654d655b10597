package kernels

import "smat/internal/matrix"

// ellWidthRange computes rows [lo, hi) a row at a time over ELL's row-major
// slots, each row's result formed in a register and stored once. A row's
// slots are taken in groups: the leading one to four form the sum, the rest
// follow four at a time, each group's products added pairwise. A matrix of
// width one to four is its leading group alone: straight-line code per row
// with no slot loop, the scalar-code analogue of the vectorisation that
// makes ELL attractive on SIMD hardware. Every row of an ELL matrix holds all
// its slots, so a row's stretch of Data and ColIdx is cut once, to a length
// the compiler can carry, and the only check left per element is the x[col]
// gather. Padding slots carry value 0 at column 0 and are multiplied like any
// other.
//
//smat:hotpath
func ellWidthRange[T matrix.Float](e *matrix.ELL[T], x, y []T, lo, hi int) {
	w := e.Width
	yr := y[lo:hi]
	data, idx := e.Data[lo*w:hi*w], e.ColIdx[lo*w:hi*w]
	switch w {
	case 0:
		clear(yr)
	case 1:
		data, idx = data[:len(yr)], idx[:len(yr)]
		for r := range yr {
			yr[r] = data[r] * x[idx[r]]
		}
	case 2:
		for r := range yr {
			d, c := data[2*r:2*r+2:2*r+2], idx[2*r:2*r+2:2*r+2]
			yr[r] = d[0]*x[c[0]] + d[1]*x[c[1]]
		}
	case 3:
		for r := range yr {
			d, c := data[3*r:3*r+3:3*r+3], idx[3*r:3*r+3:3*r+3]
			yr[r] = d[0]*x[c[0]] + d[1]*x[c[1]] + d[2]*x[c[2]]
		}
	case 4:
		for r := range yr {
			d, c := data[4*r:4*r+4:4*r+4], idx[4*r:4*r+4:4*r+4]
			yr[r] = (d[0]*x[c[0]] + d[1]*x[c[1]]) + (d[2]*x[c[2]] + d[3]*x[c[3]])
		}
	default:
		head := (w-1)&3 + 1
		for r := range yr {
			d, c := data[r*w:(r+1)*w], idx[r*w:(r+1)*w]
			c = c[:len(d)]
			d4, c4 := d[:4:4], c[:4:4]
			var s T
			switch head {
			case 1:
				s = d4[0] * x[c4[0]]
			case 2:
				s = d4[0]*x[c4[0]] + d4[1]*x[c4[1]]
			case 3:
				s = d4[0]*x[c4[0]] + d4[1]*x[c4[1]] + d4[2]*x[c4[2]]
			default:
				s = (d4[0]*x[c4[0]] + d4[1]*x[c4[1]]) + (d4[2]*x[c4[2]] + d4[3]*x[c4[3]])
			}
			for n := head; n+4 <= len(d); n += 4 {
				d4, c4 := d[n:n+4:n+4], c[n:n+4:n+4]
				s += (d4[0]*x[c4[0]] + d4[1]*x[c4[1]]) + (d4[2]*x[c4[2]] + d4[3]*x[c4[3]])
			}
			yr[r] = s
		}
	}
}

//smat:hotpath
func ellWidthChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellWidthRange(m.ELL, x, y, lo, hi)
}
