package kernels

import "smat/internal/matrix"

// diaBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides with diaBlockedRange's traversal (batch.go): the interior
// rows — [-Offsets[0], Cols-Offsets[nd-1]), where every diagonal lies inside
// the matrix — in tiles of batchTileRows(k) rows, each tile cleared and then
// crossed by the diagonals four at a time (diaBatchGroup); the rows before
// and after the interior through the guarded row-major loop. Per column the
// products are added in diagonal order starting from +0, so the bits are those
// of the row-major loop at every k and k=1 is bit-for-bit dia_rowmajor.
//
//smat:hotpath
func diaBatchRange[T matrix.Float](d *matrix.DIA[T], xb, yb []T, k, lo, hi int) {
	nd := len(d.Offsets)
	if nd == 0 {
		clear(yb[lo*k : hi*k])
		return
	}
	iLo, iHi := max(lo, -d.Offsets[0]), min(hi, d.Cols-d.Offsets[nd-1])
	if iLo >= iHi {
		iLo, iHi = hi, hi // no interior row in the chunk
	}
	diaBatchRows(d, xb, yb, k, lo, iLo)
	tile := batchTileRows(k)
	for rb := iLo; rb < iHi; rb += tile {
		n := min(tile, iHi-rb)
		yt := yb[rb*k:][:n*k]
		clear(yt)
		for i := 0; i < nd; i += 4 {
			g := min(4, nd-i)
			d0, x0 := diaBatchCut(d, xb, k, i, rb, n)
			d1, x1, d2, x2, d3, x3 := d0, x0, d0, x0, d0, x0 // never read past g
			if g > 1 {
				d1, x1 = diaBatchCut(d, xb, k, i+1, rb, n)
			}
			if g > 2 {
				d2, x2 = diaBatchCut(d, xb, k, i+2, rb, n)
			}
			if g > 3 {
				d3, x3 = diaBatchCut(d, xb, k, i+3, rb, n)
			}
			diaBatchGroup(yt, k, g, d0, d1, d2, d3, x0, x1, x2, x3)
		}
	}
	diaBatchRows(d, xb, yb, k, iHi, hi)
}

// diaBatchCut cuts diagonal i to the n interior rows from rb, and xb to the
// n·k interleaved values those rows multiply.
//
//smat:hotpath
func diaBatchCut[T matrix.Float](d *matrix.DIA[T], xb []T, k, i, rb, n int) (diag, xs []T) {
	return d.Data[i*d.Rows+rb:][:n], xb[(rb+d.Offsets[i])*k:][:n*k]
}

// diaBatchRows is the guarded row-major loop of the boundary rows: a diagonal
// that leaves the matrix at row r is skipped there, never multiplied.
//
//smat:hotpath
func diaBatchRows[T matrix.Float](d *matrix.DIA[T], xb, yb []T, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		yr := yb[r*k:][:k]
		clear(yr)
		for i, off := range d.Offsets {
			if c := r + off; c >= 0 && c < d.Cols {
				v := d.Data[i*d.Rows+r]
				xc := xb[c*k:][:len(yr)]
				for j := range yr {
					yr[j] += v * xc[j]
				}
			}
		}
	}
}

// diaBatchGroup adds g ≤ 4 diagonals, cut to one tile, into the tile's yt:
// row r's k columns are taken in lanes of constant width — eight, then four,
// then the last three, two or one together — each lane loading its columns
// of yt once, adding the g products in diagonal order and storing them back.
// The element loops index only slices cut to a constant length.
//
//smat:hotpath
func diaBatchGroup[T matrix.Float](yt []T, k, g int, d0, d1, d2, d3, x0, x1, x2, x3 []T) {
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	n := len(yt)
	yt, x0, x1, x2, x3 = yt[:n:n], x0[:n:n], x1[:n:n], x2[:n:n], x3[:n:n]
	j := 0
	for ; j+8 <= k; j += 8 {
		for r, v := range d0 {
			p := r*k + j
			y, a := yt[p:p+8:p+8], x0[p:p+8:p+8]
			s0, s1, s2, s3, s4, s5, s6, s7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
			s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			if g > 1 {
				v, a := d1[r], x1[p:p+8:p+8]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			}
			if g > 2 {
				v, a := d2[r], x2[p:p+8:p+8]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			}
			if g > 3 {
				v, a := d3[r], x3[p:p+8:p+8]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			}
			y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
	if j+4 <= k {
		for r, v := range d0 {
			p := r*k + j
			y, a := yt[p:p+4:p+4], x0[p:p+4:p+4]
			s0, s1, s2, s3 := y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2], y[3]+v*a[3]
			if g > 1 {
				v, a := d1[r], x1[p:p+4:p+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			if g > 2 {
				v, a := d2[r], x2[p:p+4:p+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			if g > 3 {
				v, a := d3[r], x3[p:p+4:p+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		}
		j += 4
	}
	switch k - j {
	case 3:
		for r, v := range d0 {
			p := r*k + j
			y, a := yt[p:p+3:p+3], x0[p:p+3:p+3]
			s0, s1, s2 := y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2]
			if g > 1 {
				v, a := d1[r], x1[p:p+3:p+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			if g > 2 {
				v, a := d2[r], x2[p:p+3:p+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			if g > 3 {
				v, a := d3[r], x3[p:p+3:p+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			y[0], y[1], y[2] = s0, s1, s2
		}
	case 2:
		for r, v := range d0 {
			p := r*k + j
			y, a := yt[p:p+2:p+2], x0[p:p+2:p+2]
			s0, s1 := y[0]+v*a[0], y[1]+v*a[1]
			if g > 1 {
				v, a := d1[r], x1[p:p+2:p+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			if g > 2 {
				v, a := d2[r], x2[p:p+2:p+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			if g > 3 {
				v, a := d3[r], x3[p:p+2:p+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			y[0], y[1] = s0, s1
		}
	case 1:
		for r, v := range d0 {
			p := r*k + j
			y, a := yt[p:p+1:p+1], x0[p:p+1:p+1]
			s := y[0] + v*a[0]
			if g > 1 {
				v, a := d1[r], x1[p:p+1:p+1]
				s += v * a[0]
			}
			if g > 2 {
				v, a := d2[r], x2[p:p+1:p+1]
				s += v * a[0]
			}
			if g > 3 {
				v, a := d3[r], x3[p:p+1:p+1]
				s += v * a[0]
			}
			y[0] = s
		}
	}
}

//smat:hotpath
func diaBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	diaBatchRange(m.DIA, xb, yb, k, lo, hi)
}
