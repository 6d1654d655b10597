package kernels

import "smat/internal/matrix"

// csrBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides with the tile cascade (batch.go): eight accumulators per
// loaded matrix entry, then four, then the scalar remainder in csrRowRange's
// accumulation order, so k=1 is bit-for-bit csr_basic.
//
//smat:hotpath
func csrBatchRange[T matrix.Float](m *matrix.CSR[T], xb, yb []T, k, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		yr := yb[i*k : (i+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for jj := start; jj < end; jj++ {
				v := vals[jj]
				xc := xb[colIdx[jj]*k+j : colIdx[jj]*k+j+8]
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
			for jj := start; jj < end; jj++ {
				v := vals[jj]
				xc := xb[colIdx[jj]*k+j:]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var sum T
			for jj := start; jj < end; jj++ {
				sum += xb[colIdx[jj]*k+j] * vals[jj]
			}
			yr[j] = sum
		}
	}
}

// csrBatchRangeUnroll4 is csrBatchRange with the remainder-column inner
// product additionally unrolled by four over the nonzeros (csrRowRangeUnroll4's
// order, so k=1 is bit-for-bit csr_unroll4). Full tiles already carry their
// independent accumulators across the RHS dimension and stay as they are.
//
//smat:hotpath
func csrBatchRangeUnroll4[T matrix.Float](m *matrix.CSR[T], xb, yb []T, k, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		yr := yb[i*k : (i+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for jj := start; jj < end; jj++ {
				v := vals[jj]
				xc := xb[colIdx[jj]*k+j : colIdx[jj]*k+j+8]
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
			for jj := start; jj < end; jj++ {
				v := vals[jj]
				xc := xb[colIdx[jj]*k+j:]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var s0, s1, s2, s3 T
			jj := start
			for ; jj+4 <= end; jj += 4 {
				s0 += xb[colIdx[jj]*k+j] * vals[jj]
				s1 += xb[colIdx[jj+1]*k+j] * vals[jj+1]
				s2 += xb[colIdx[jj+2]*k+j] * vals[jj+2]
				s3 += xb[colIdx[jj+3]*k+j] * vals[jj+3]
			}
			for ; jj < end; jj++ {
				s0 += xb[colIdx[jj]*k+j] * vals[jj]
			}
			yr[j] = (s0 + s1) + (s2 + s3)
		}
	}
}

//smat:hotpath
func csrBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	csrBatchRange(m.CSR, xb, yb, k, lo, hi)
}

//smat:hotpath
func csrBatchChunkUnroll4[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	csrBatchRangeUnroll4(m.CSR, xb, yb, k, lo, hi)
}
