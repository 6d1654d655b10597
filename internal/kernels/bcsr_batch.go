package kernels

import "smat/internal/matrix"

// bcsrBatchRange computes block rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides with the generic any-block-size body: clear the block
// row's yb segment, then accumulate per block, per local row, with the tile
// cascade (batch.go) over the RHS dimension. Remainder columns follow
// bcsrGenericRange's accumulation order (sum per local row, then one += into
// yb), so k=1 is bit-for-bit bcsr_basic.
//
//smat:hotpath
func bcsrBatchRange[T matrix.Float](m *matrix.BCSR[T], xb, yb []T, k, lo, hi int) {
	br, bc := m.BR, m.BC
	for bi := lo; bi < hi; bi++ {
		baseRow := bi * br
		height := br
		if baseRow+height > m.Rows {
			height = m.Rows - baseRow
		}
		ySeg := yb[baseRow*k : (baseRow+height)*k]
		clear(ySeg)
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			baseCol := m.ColIdx[s] * bc
			blk := m.Blocks[s*br*bc : (s+1)*br*bc]
			// The last block column may be padded past Cols; padding holds
			// zeros, but xb must not be read out of range.
			width := bc
			if baseCol+width > m.Cols {
				width = m.Cols - baseCol
			}
			for lr := 0; lr < height; lr++ {
				row := blk[lr*bc:]
				yr := ySeg[lr*k : (lr+1)*k]
				j := 0
				for ; j+8 <= k; j += 8 {
					var s0, s1, s2, s3, s4, s5, s6, s7 T
					for lc := 0; lc < width; lc++ {
						v := row[lc]
						xc := xb[(baseCol+lc)*k+j:]
						s0 += v * xc[0]
						s1 += v * xc[1]
						s2 += v * xc[2]
						s3 += v * xc[3]
						s4 += v * xc[4]
						s5 += v * xc[5]
						s6 += v * xc[6]
						s7 += v * xc[7]
					}
					yr[j] += s0
					yr[j+1] += s1
					yr[j+2] += s2
					yr[j+3] += s3
					yr[j+4] += s4
					yr[j+5] += s5
					yr[j+6] += s6
					yr[j+7] += s7
				}
				for ; j+4 <= k; j += 4 {
					var s0, s1, s2, s3 T
					for lc := 0; lc < width; lc++ {
						v := row[lc]
						xc := xb[(baseCol+lc)*k+j:]
						s0 += v * xc[0]
						s1 += v * xc[1]
						s2 += v * xc[2]
						s3 += v * xc[3]
					}
					yr[j] += s0
					yr[j+1] += s1
					yr[j+2] += s2
					yr[j+3] += s3
				}
				for ; j < k; j++ {
					var sum T
					for lc := 0; lc < width; lc++ {
						sum += row[lc] * xb[(baseCol+lc)*k+j]
					}
					yr[j] += sum
				}
			}
		}
	}
}

//smat:hotpath
func bcsrBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	bcsrBatchRange(m.BCSR, xb, yb, k, lo, hi)
}
