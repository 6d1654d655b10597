package kernels

import "smat/internal/matrix"

// ellBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides with ellWidthRange's traversal (batch.go): tiles of
// batchTileRows(k) rows, each tile cleared and then crossed by the slots four
// at a time (ellBatchGroup). Every row of an ELL matrix holds all its slots,
// so there are no boundary rows; padding slots carry value 0 at column 0 and
// are multiplied like any other. Per column the products are added in slot
// order starting from +0, so the bits are those of the row-major loop at
// every k and k=1 is bit-for-bit ell_rowmajor.
//
//smat:hotpath
func ellBatchRange[T matrix.Float](e *matrix.ELL[T], xb, yb []T, k, lo, hi int) {
	w, tile := e.Width, batchTileRows(k)
	for rb := lo; rb < hi; rb += tile {
		n := min(tile, hi-rb)
		yt := yb[rb*k:][:n*k]
		clear(yt)
		for s := 0; s < w; s += 4 {
			g := min(4, w-s)
			d0, i0 := ellCut(e, s, rb, n)
			d1, i1, d2, i2, d3, i3 := d0, i0, d0, i0, d0, i0 // never read past g
			if g > 1 {
				d1, i1 = ellCut(e, s+1, rb, n)
			}
			if g > 2 {
				d2, i2 = ellCut(e, s+2, rb, n)
			}
			if g > 3 {
				d3, i3 = ellCut(e, s+3, rb, n)
			}
			ellBatchGroup(yt, xb, k, g, d0, d1, d2, d3, i0, i1, i2, i3)
		}
	}
}

// ellBatchGroup adds g ≤ 4 slots, cut to one tile, into the tile's yt, in
// diaBatchGroup's lanes: eight columns of a row at a time, then four, then
// the last three, two or one together, each lane loading its columns of yt
// once, adding the g products in slot order and storing them back. The one
// check per entry and lane is the cut of xb at the entry's column.
//
//smat:hotpath
func ellBatchGroup[T matrix.Float](yt, xb []T, k, g int, d0, d1, d2, d3 []T, i0, i1, i2, i3 []int) {
	d1, d2, d3 = d1[:len(d0)], d2[:len(d0)], d3[:len(d0)]
	i0, i1, i2, i3 = i0[:len(d0)], i1[:len(d0)], i2[:len(d0)], i3[:len(d0)]
	j := 0
	for ; j+8 <= k; j += 8 {
		for r, v := range d0 {
			p, c := r*k+j, i0[r]*k+j
			y, a := yt[p:p+8:p+8], xb[c:c+8:c+8]
			s0, s1, s2, s3, s4, s5, s6, s7 := y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7]
			s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			if g > 1 {
				c := i1[r]*k + j
				v, a := d1[r], xb[c:c+8:c+8]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			}
			if g > 2 {
				c := i2[r]*k + j
				v, a := d2[r], xb[c:c+8:c+8]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			}
			if g > 3 {
				c := i3[r]*k + j
				v, a := d3[r], xb[c:c+8:c+8]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
				s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
			}
			y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7] = s0, s1, s2, s3, s4, s5, s6, s7
		}
	}
	if j+4 <= k {
		for r, v := range d0 {
			p, c := r*k+j, i0[r]*k+j
			y, a := yt[p:p+4:p+4], xb[c:c+4:c+4]
			s0, s1, s2, s3 := y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2], y[3]+v*a[3]
			if g > 1 {
				c := i1[r]*k + j
				v, a := d1[r], xb[c:c+4:c+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			if g > 2 {
				c := i2[r]*k + j
				v, a := d2[r], xb[c:c+4:c+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			if g > 3 {
				c := i3[r]*k + j
				v, a := d3[r], xb[c:c+4:c+4]
				s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			}
			y[0], y[1], y[2], y[3] = s0, s1, s2, s3
		}
		j += 4
	}
	switch k - j {
	case 3:
		for r, v := range d0 {
			p, c := r*k+j, i0[r]*k+j
			y, a := yt[p:p+3:p+3], xb[c:c+3:c+3]
			s0, s1, s2 := y[0]+v*a[0], y[1]+v*a[1], y[2]+v*a[2]
			if g > 1 {
				c := i1[r]*k + j
				v, a := d1[r], xb[c:c+3:c+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			if g > 2 {
				c := i2[r]*k + j
				v, a := d2[r], xb[c:c+3:c+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			if g > 3 {
				c := i3[r]*k + j
				v, a := d3[r], xb[c:c+3:c+3]
				s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
			}
			y[0], y[1], y[2] = s0, s1, s2
		}
	case 2:
		for r, v := range d0 {
			p, c := r*k+j, i0[r]*k+j
			y, a := yt[p:p+2:p+2], xb[c:c+2:c+2]
			s0, s1 := y[0]+v*a[0], y[1]+v*a[1]
			if g > 1 {
				c := i1[r]*k + j
				v, a := d1[r], xb[c:c+2:c+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			if g > 2 {
				c := i2[r]*k + j
				v, a := d2[r], xb[c:c+2:c+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			if g > 3 {
				c := i3[r]*k + j
				v, a := d3[r], xb[c:c+2:c+2]
				s0, s1 = s0+v*a[0], s1+v*a[1]
			}
			y[0], y[1] = s0, s1
		}
	case 1:
		for r, v := range d0 {
			p := r*k + j
			y := yt[p : p+1 : p+1]
			s := y[0] + v*xb[i0[r]*k+j]
			if g > 1 {
				s += d1[r] * xb[i1[r]*k+j]
			}
			if g > 2 {
				s += d2[r] * xb[i2[r]*k+j]
			}
			if g > 3 {
				s += d3[r] * xb[i3[r]*k+j]
			}
			y[0] = s
		}
	}
}

//smat:hotpath
func ellBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	ellBatchRange(m.ELL, xb, yb, k, lo, hi)
}
