package kernels

import "smat/internal/matrix"

// BCSR kernels: the register-blocking extension format. The generic kernel
// handles any block size; the specialised kernel dispatches fully-unrolled
// bodies for the common square blocks (the scalar analogue of OSKI's
// register-blocked code variants).

// bcsrGenericRange computes block rows [lo, hi). It accumulates straight
// into y (zeroing the block row's segment first) so the body stays
// allocation-free; rows past Rows in the last ragged block are skipped.
//
//smat:hotpath
func bcsrGenericRange[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	br, bc := m.BR, m.BC
	for bi := lo; bi < hi; bi++ {
		baseRow := bi * br
		height := br
		if baseRow+height > m.Rows {
			height = m.Rows - baseRow
		}
		ySeg := y[baseRow : baseRow+height]
		clear(ySeg)
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			baseCol := m.ColIdx[s] * bc
			blk := m.Blocks[s*br*bc : (s+1)*br*bc]
			// The last block column may be padded past Cols; padding holds
			// zeros, but x must not be read out of range.
			width := bc
			if baseCol+width > m.Cols {
				width = m.Cols - baseCol
			}
			for lr := 0; lr < height; lr++ {
				var sum T
				row := blk[lr*bc:]
				for lc := 0; lc < width; lc++ {
					sum += row[lc] * x[baseCol+lc]
				}
				ySeg[lr] += sum
			}
		}
	}
}

// bcsr2x2Range is the fully unrolled 2×2 body.
//
//smat:hotpath
func bcsr2x2Range[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		var s0, s1 T
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			c := m.ColIdx[s] * 2
			blk := m.Blocks[s*4 : s*4+4]
			if c+1 < m.Cols {
				x0, x1 := x[c], x[c+1]
				s0 += blk[0]*x0 + blk[1]*x1
				s1 += blk[2]*x0 + blk[3]*x1
			} else {
				x0 := x[c]
				s0 += blk[0] * x0
				s1 += blk[2] * x0
			}
		}
		r := bi * 2
		y[r] = s0
		if r+1 < m.Rows {
			y[r+1] = s1
		}
	}
}

// bcsr4x4Range is the fully unrolled 4×4 body for interior block columns,
// falling back to bounded loops on the (single) ragged edge block.
//
//smat:hotpath
func bcsr4x4Range[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		var s0, s1, s2, s3 T
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			c := m.ColIdx[s] * 4
			blk := m.Blocks[s*16 : s*16+16]
			if c+3 < m.Cols {
				x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
				s0 += blk[0]*x0 + blk[1]*x1 + blk[2]*x2 + blk[3]*x3
				s1 += blk[4]*x0 + blk[5]*x1 + blk[6]*x2 + blk[7]*x3
				s2 += blk[8]*x0 + blk[9]*x1 + blk[10]*x2 + blk[11]*x3
				s3 += blk[12]*x0 + blk[13]*x1 + blk[14]*x2 + blk[15]*x3
			} else {
				for lc := 0; c+lc < m.Cols; lc++ {
					xv := x[c+lc]
					s0 += blk[lc] * xv
					s1 += blk[4+lc] * xv
					s2 += blk[8+lc] * xv
					s3 += blk[12+lc] * xv
				}
			}
		}
		r := bi * 4
		sums := [4]T{s0, s1, s2, s3}
		for lr := 0; lr < 4 && r+lr < m.Rows; lr++ {
			y[r+lr] = sums[lr]
		}
	}
}

// bcsr2x4Range is the fully unrolled 2×4 body for interior block columns,
// falling back to bounded loops on the (single) ragged edge block.
//
//smat:hotpath
func bcsr2x4Range[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		var s0, s1 T
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			c := m.ColIdx[s] * 4
			blk := m.Blocks[s*8 : s*8+8]
			if c+3 < m.Cols {
				x0, x1, x2, x3 := x[c], x[c+1], x[c+2], x[c+3]
				s0 += blk[0]*x0 + blk[1]*x1 + blk[2]*x2 + blk[3]*x3
				s1 += blk[4]*x0 + blk[5]*x1 + blk[6]*x2 + blk[7]*x3
			} else {
				for lc := 0; c+lc < m.Cols; lc++ {
					xv := x[c+lc]
					s0 += blk[lc] * xv
					s1 += blk[4+lc] * xv
				}
			}
		}
		r := bi * 2
		y[r] = s0
		if r+1 < m.Rows {
			y[r+1] = s1
		}
	}
}

// bcsr4x2Range is the fully unrolled 4×2 body.
//
//smat:hotpath
func bcsr4x2Range[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		var s0, s1, s2, s3 T
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			c := m.ColIdx[s] * 2
			blk := m.Blocks[s*8 : s*8+8]
			if c+1 < m.Cols {
				x0, x1 := x[c], x[c+1]
				s0 += blk[0]*x0 + blk[1]*x1
				s1 += blk[2]*x0 + blk[3]*x1
				s2 += blk[4]*x0 + blk[5]*x1
				s3 += blk[6]*x0 + blk[7]*x1
			} else {
				x0 := x[c]
				s0 += blk[0] * x0
				s1 += blk[2] * x0
				s2 += blk[4] * x0
				s3 += blk[6] * x0
			}
		}
		r := bi * 4
		sums := [4]T{s0, s1, s2, s3}
		for lr := 0; lr < 4 && r+lr < m.Rows; lr++ {
			y[r+lr] = sums[lr]
		}
	}
}

// bcsr8x2Range is the fully unrolled 8×2 body — the tall-block shape for
// column-pair structure that matrix.BestBlockSize's square-leaning candidate
// list never picks.
//
//smat:hotpath
func bcsr8x2Range[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	for bi := lo; bi < hi; bi++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		for s := m.RowPtr[bi]; s < m.RowPtr[bi+1]; s++ {
			c := m.ColIdx[s] * 2
			blk := m.Blocks[s*16 : s*16+16]
			if c+1 < m.Cols {
				x0, x1 := x[c], x[c+1]
				s0 += blk[0]*x0 + blk[1]*x1
				s1 += blk[2]*x0 + blk[3]*x1
				s2 += blk[4]*x0 + blk[5]*x1
				s3 += blk[6]*x0 + blk[7]*x1
				s4 += blk[8]*x0 + blk[9]*x1
				s5 += blk[10]*x0 + blk[11]*x1
				s6 += blk[12]*x0 + blk[13]*x1
				s7 += blk[14]*x0 + blk[15]*x1
			} else {
				x0 := x[c]
				s0 += blk[0] * x0
				s1 += blk[2] * x0
				s2 += blk[4] * x0
				s3 += blk[6] * x0
				s4 += blk[8] * x0
				s5 += blk[10] * x0
				s6 += blk[12] * x0
				s7 += blk[14] * x0
			}
		}
		r := bi * 8
		sums := [8]T{s0, s1, s2, s3, s4, s5, s6, s7}
		for lr := 0; lr < 8 && r+lr < m.Rows; lr++ {
			y[r+lr] = sums[lr]
		}
	}
}

// bcsrDispatchRange picks the specialised body when one exists. The searched
// shape space (BCSRShapes) is chosen at conversion time and dispatched here
// on the stored block shape, so one registered kernel serves every shape.
//
//smat:hotpath
func bcsrDispatchRange[T matrix.Float](m *matrix.BCSR[T], x, y []T, lo, hi int) {
	switch {
	case m.BR == 2 && m.BC == 2:
		bcsr2x2Range(m, x, y, lo, hi)
	case m.BR == 2 && m.BC == 4:
		bcsr2x4Range(m, x, y, lo, hi)
	case m.BR == 4 && m.BC == 2:
		bcsr4x2Range(m, x, y, lo, hi)
	case m.BR == 4 && m.BC == 4:
		bcsr4x4Range(m, x, y, lo, hi)
	case m.BR == 8 && m.BC == 2:
		bcsr8x2Range(m, x, y, lo, hi)
	default:
		bcsrGenericRange(m, x, y, lo, hi)
	}
}

//smat:hotpath
func bcsrGenericChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	bcsrGenericRange(m.BCSR, x, y, lo, hi)
}

//smat:hotpath
func bcsrChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	bcsrDispatchRange(m.BCSR, x, y, lo, hi)
}

// bcsrFamily is the BCSR table (opt-in via RegisterBCSR). Work items are
// block rows. bcsr_basic, the any-shape body, has no partitioned instance.
func bcsrFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatBCSR,
		single: []body[T]{
			{name: "bcsr", alone: "_basic", chunk: bcsrGenericChunk[T],
				over: []partition{whole}},
			{name: "bcsr_blockspec", strat: StratWidthSpec, chunk: bcsrChunk[T],
				over: []partition{whole, byRows}, threaded: byRows},
		},
		batch: []body[T]{
			{name: "bcsr_batch", chunk: bcsrBatchChunk[T],
				over: []partition{whole, byRows}},
		},
	}
}

// RegisterBCSR adds the blocked-CSR kernels to the library.
func (l *Library[T]) RegisterBCSR() { l.instantiate(bcsrFamily[T]()) }
