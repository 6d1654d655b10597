package kernels

import "smat/internal/matrix"

// ellBatchRange computes rows [lo, hi) of Y = A·X for k interleaved
// right-hand sides (batch.go) in tiles of batchTileRows(k) rows: a tile's k
// columns are taken in lanes of constant width — eight, then four, then the
// last three, two or one together — and each lane is one pass over the
// tile's rows (ellBatchLane8 … 1), a row's slots crossing its columns with
// the accumulators in registers and its stretch of yb stored once. The tile
// keeps the rows a lane reads in cache for the next lane. Every row of an ELL
// matrix holds all its slots, so there are no boundary rows; padding slots
// carry value 0 at column 0 and are multiplied like any other. Per column the
// products are added in slot order starting from +0, so the bits are those of
// the row-major loop at every k and k=1 is bit-for-bit ell_rowmajor.
//
//smat:hotpath
func ellBatchRange[T matrix.Float](e *matrix.ELL[T], xb, yb []T, k, lo, hi int) {
	w, tile := e.Width, batchTileRows(k)
	if w == 0 {
		clear(yb[lo*k : hi*k])
		return
	}
	for rb := lo; rb < hi; rb += tile {
		n := min(tile, hi-rb)
		yt := yb[rb*k:][:n*k]
		d, c := e.Data[rb*w:(rb+n)*w], e.ColIdx[rb*w:(rb+n)*w]
		j := 0
		for ; j+8 <= k; j += 8 {
			ellBatchLane8(yt, xb, k, j, w, d, c)
		}
		if j+4 <= k {
			ellBatchLane4(yt, xb, k, j, w, d, c)
			j += 4
		}
		switch k - j {
		case 3:
			ellBatchLane3(yt, xb, k, j, w, d, c)
		case 2:
			ellBatchLane2(yt, xb, k, j, w, d, c)
		case 1:
			ellBatchLane1(yt, xb, k, j, w, d, c)
		}
	}
}

// ellBatchLane8 writes columns [j, j+8) of the tile's yt: for each row — d
// and c are the tile's values and columns, w a row — the row's slots in
// order into eight accumulators, each entry's stretch of xb cut to the
// lane's width, the one check per entry. ellBatchLane4 … 1 are the narrower
// lanes.
//
//smat:hotpath
func ellBatchLane8[T matrix.Float](yt, xb []T, k, j, w int, d []T, c []int) {
	c = c[:len(d)]
	for o, p := 0, j; o < len(d); o, p = o+w, p+k {
		dr, cr := d[o:o+w], c[o:o+w]
		var s0, s1, s2, s3, s4, s5, s6, s7 T
		for n, v := range dr {
			q := cr[n]*k + j
			a := xb[q : q+8 : q+8]
			s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
			s4, s5, s6, s7 = s4+v*a[4], s5+v*a[5], s6+v*a[6], s7+v*a[7]
		}
		y := yt[p : p+8 : p+8]
		y[0], y[1], y[2], y[3], y[4], y[5], y[6], y[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

//smat:hotpath
func ellBatchLane4[T matrix.Float](yt, xb []T, k, j, w int, d []T, c []int) {
	c = c[:len(d)]
	for o, p := 0, j; o < len(d); o, p = o+w, p+k {
		dr, cr := d[o:o+w], c[o:o+w]
		var s0, s1, s2, s3 T
		for n, v := range dr {
			q := cr[n]*k + j
			a := xb[q : q+4 : q+4]
			s0, s1, s2, s3 = s0+v*a[0], s1+v*a[1], s2+v*a[2], s3+v*a[3]
		}
		y := yt[p : p+4 : p+4]
		y[0], y[1], y[2], y[3] = s0, s1, s2, s3
	}
}

//smat:hotpath
func ellBatchLane3[T matrix.Float](yt, xb []T, k, j, w int, d []T, c []int) {
	c = c[:len(d)]
	for o, p := 0, j; o < len(d); o, p = o+w, p+k {
		dr, cr := d[o:o+w], c[o:o+w]
		var s0, s1, s2 T
		for n, v := range dr {
			q := cr[n]*k + j
			a := xb[q : q+3 : q+3]
			s0, s1, s2 = s0+v*a[0], s1+v*a[1], s2+v*a[2]
		}
		y := yt[p : p+3 : p+3]
		y[0], y[1], y[2] = s0, s1, s2
	}
}

//smat:hotpath
func ellBatchLane2[T matrix.Float](yt, xb []T, k, j, w int, d []T, c []int) {
	c = c[:len(d)]
	for o, p := 0, j; o < len(d); o, p = o+w, p+k {
		dr, cr := d[o:o+w], c[o:o+w]
		var s0, s1 T
		for n, v := range dr {
			q := cr[n]*k + j
			a := xb[q : q+2 : q+2]
			s0, s1 = s0+v*a[0], s1+v*a[1]
		}
		y := yt[p : p+2 : p+2]
		y[0], y[1] = s0, s1
	}
}

//smat:hotpath
func ellBatchLane1[T matrix.Float](yt, xb []T, k, j, w int, d []T, c []int) {
	c = c[:len(d)]
	for o, p := 0, j; o < len(d); o, p = o+w, p+k {
		dr, cr := d[o:o+w], c[o:o+w]
		var s T
		for n, v := range dr {
			s += v * xb[cr[n]*k+j]
		}
		yt[p] = s
	}
}

//smat:hotpath
func ellBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	ellBatchRange(m.ELL, xb, yb, k, lo, hi)
}
