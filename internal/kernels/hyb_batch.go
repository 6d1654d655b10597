package kernels

import "smat/internal/matrix"

// HYB batched kernels: the ELL part runs the batched ELL body (writing
// every yb element), then the COO overflow accumulates on top with the
// batched COO loop — the same two-phase runner (hybPhases) as the
// single-vector HYB kernels, over these chunks. At k=1 the per-element
// addition sequence matches hyb_basic (sequential over ELL slots, then tail
// entries in order), so the batched oracle pins them bit-for-bit.

//smat:hotpath
func hybELLBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	ellBatchRange(m.HYB.ELL, xb, yb, k, lo, hi)
}

//smat:hotpath
func hybCOOBatchChunk[T matrix.Float](m *Mat[T], xb, yb []T, k, lo, hi int) {
	cooBatchRange(m.HYB.COO, xb, yb, k, lo, hi)
}
