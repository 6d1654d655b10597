package kernels

import "smat/internal/matrix"

// diaBlockSize is the row-tile size of the cache-blocked DIA traversal: 2048
// float64 elements of y (16KiB) stay resident in L1 while every diagonal
// crosses the tile.
const diaBlockSize = 2048

// diaBlockedRange computes rows [lo, hi) with the diagonal-major traversal
// tiled over rows: within a tile, y is re-read from cache instead of memory,
// removing the paper's "Y written once per diagonal" penalty while keeping
// DIA's contiguous x access.
//
//smat:hotpath
func diaBlockedRange[T matrix.Float](d *matrix.DIA[T], x, y []T, lo, hi int) {
	for rb := lo; rb < hi; rb += diaBlockSize {
		re := rb + diaBlockSize
		if re > hi {
			re = hi
		}
		clear(y[rb:re])
		for i, k := range d.Offsets {
			iStart := rb
			if s := -k; s > iStart {
				iStart = s
			}
			iEnd := re
			if e := d.Cols - k; e < iEnd {
				iEnd = e
			}
			if iStart >= iEnd {
				continue
			}
			diag := d.Data[i*d.Rows:]
			for r := iStart; r < iEnd; r++ {
				y[r] += diag[r] * x[r+k]
			}
		}
	}
}

//smat:hotpath
func diaBlockedChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	diaBlockedRange(m.DIA, x, y, lo, hi)
}
