package kernels

import "smat/internal/matrix"

// diaBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides with a row-major traversal and the tile cascade
// (batch.go): the register tile over the RHS dimension lets each row's
// diagonal walk write its yb tile exactly once. The eight-accumulator pass
// halves how often the strided diagonal data is re-walked — DIA's
// per-nonzero cost is dominated by the offset bounds check and the
// stride-Rows data load, so amortising them is what pushes the per-vector
// win past a narrower tile — with a four-wide middle pass before the scalar
// remainder. The remainder columns use diaRowRange's accumulation order, so
// k=1 is bit-for-bit dia_rowmajor.
//
//smat:hotpath
func diaBatchRange[T matrix.Float](d *matrix.DIA[T], xb, yb []T, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		yr := yb[r*k : (r+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for i, off := range d.Offsets {
				c := r + off
				if c >= 0 && c < d.Cols {
					v := d.Data[i*d.Rows+r]
					xc := xb[c*k+j : c*k+j+8]
					s0 += v * xc[0]
					s1 += v * xc[1]
					s2 += v * xc[2]
					s3 += v * xc[3]
					s4 += v * xc[4]
					s5 += v * xc[5]
					s6 += v * xc[6]
					s7 += v * xc[7]
				}
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
			yr[j+4], yr[j+5], yr[j+6], yr[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= k; j += 4 {
			var s0, s1, s2, s3 T
			for i, off := range d.Offsets {
				c := r + off
				if c >= 0 && c < d.Cols {
					v := d.Data[i*d.Rows+r]
					xc := xb[c*k+j : c*k+j+4]
					s0 += v * xc[0]
					s1 += v * xc[1]
					s2 += v * xc[2]
					s3 += v * xc[3]
				}
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var sum T
			for i, off := range d.Offsets {
				c := r + off
				if c >= 0 && c < d.Cols {
					sum += d.Data[i*d.Rows+r] * xb[c*k+j]
				}
			}
			yr[j] = sum
		}
	}
}

//smat:hotpath
func diaBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	diaBatchRange(m.DIA, xb, yb, k, lo, hi)
}
