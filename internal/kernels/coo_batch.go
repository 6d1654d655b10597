package kernels

import "smat/internal/matrix"

// cooBatchRange accumulates entries [lo, hi) into yb for k interleaved
// right-hand sides with the tile cascade (batch.go). Callers must have zeroed
// the affected rows of yb. The per-entry column loop is the unit-stride
// streak the interleaved layout buys: one rows[i]/cols[i]/vals[i] load feeds
// k multiply-adds. At k=1 only the remainder step runs, matching cooRange's
// order (bit-for-bit coo_basic).
//
//smat:hotpath
func cooBatchRange[T matrix.Float](m *matrix.COO[T], xb, yb []T, k, lo, hi int) {
	rows, cols, vals := m.RowIdx, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		v := vals[i]
		yr := yb[rows[i]*k:]
		xc := xb[cols[i]*k:]
		j := 0
		for ; j+8 <= k; j += 8 {
			yr[j] += v * xc[j]
			yr[j+1] += v * xc[j+1]
			yr[j+2] += v * xc[j+2]
			yr[j+3] += v * xc[j+3]
			yr[j+4] += v * xc[j+4]
			yr[j+5] += v * xc[j+5]
			yr[j+6] += v * xc[j+6]
			yr[j+7] += v * xc[j+7]
		}
		for ; j+4 <= k; j += 4 {
			yr[j] += v * xc[j]
			yr[j+1] += v * xc[j+1]
			yr[j+2] += v * xc[j+2]
			yr[j+3] += v * xc[j+3]
		}
		for ; j < k; j++ {
			yr[j] += v * xc[j]
		}
	}
}

// cooBatchChunk clears and accumulates the rows owned by entry chunk
// [lo, hi); chunk boundaries fall on row boundaries (cooBounds), so the
// scaled row ranges never overlap across concurrent chunks.
//
//smat:hotpath
func cooBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	rLo, rHi := cooChunkRows(m.COO, lo, hi)
	clear(yb[rLo*k : rHi*k])
	cooBatchRange(m.COO, xb, yb, k, lo, hi)
}
