package kernels

import "smat/internal/matrix"

// ellBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides, row-major, with the tile cascade (batch.go): one pass
// over each row's slots with a register tile over the RHS dimension; the
// eight-accumulator pass halves how often the stride-Rows slot data and
// column indices are re-walked per row, with a four-wide middle pass before
// the scalar remainder. Remainder columns use ellRowRange's accumulation
// order, so k=1 is bit-for-bit ell_rowmajor.
//
//smat:hotpath
func ellBatchRange[T matrix.Float](e *matrix.ELL[T], xb, yb []T, k, lo, hi int) {
	w, rows := e.Width, e.Rows
	for r := lo; r < hi; r++ {
		yr := yb[r*k : (r+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for n := 0; n < w; n++ {
				v := e.Data[n*rows+r]
				c := int(e.ColIdx[n*rows+r])
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
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
			yr[j+4], yr[j+5], yr[j+6], yr[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= k; j += 4 {
			var s0, s1, s2, s3 T
			for n := 0; n < w; n++ {
				v := e.Data[n*rows+r]
				c := int(e.ColIdx[n*rows+r])
				xc := xb[c*k+j : c*k+j+4]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var sum T
			for n := 0; n < w; n++ {
				sum += e.Data[n*rows+r] * xb[e.ColIdx[n*rows+r]*k+j]
			}
			yr[j] = sum
		}
	}
}

//smat:hotpath
func ellBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	ellBatchRange(m.ELL, xb, yb, k, lo, hi)
}
