package kernels

import "smat/internal/matrix"

// HYB kernels: the extension format (see matrix.FormatHYB). The ELL part is
// computed with the existing ELL loops (writing y), then the COO overflow
// accumulates on top. Registered in the library like every other kernel, so
// the scoreboard search tunes HYB without further changes — the paper's
// extensibility claim in action.

//smat:hotpath
func runHYBBasic[T matrix.Float](m *Mat[T], x, y []T, _ int, _ exec[T]) {
	h := m.HYB
	ellRowRange(h.ELL, x, y, 0, h.ELL.Rows)
	cooRange(h.COO, x, y, 0, h.COO.NNZ())
}

//smat:hotpath
func hybELLChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	ellWidthRange(m.HYB.ELL, x, y, lo, hi)
}

//smat:hotpath
func hybCOOChunk[T matrix.Float](m *Mat[T], x, y []T, _, lo, hi int) {
	cooRange(m.HYB.COO, x, y, lo, hi)
}

// hybPhases builds the two-phase HYB runner from an ELL-part chunk (which
// writes every y element of its rows) and a COO-tail chunk (which accumulates
// on top). It is the one runner the table does not generate: two bodies over
// two partitions with a barrier between them.
//
//smat:hotpath-factory
func hybPhases[T matrix.Float](ell, tail rangeFn[T]) runFn[T] {
	return func(m *Mat[T], x, y []T, k int, ex exec[T]) {
		h := m.HYB
		if ex.plan.Serial {
			ell(m, x, y, k, 0, h.ELL.Rows)
			tail(m, x, y, k, 0, h.COO.NNZ())
			return
		}
		ex.dispatch(ex.plan.RowBounds, ell, m, x, y, k)
		// The COO tail accumulates after the ELL phase completes (the ELL pass
		// wrote every y element); tail chunks are row-aligned, so the parallel
		// phase has no write conflicts either.
		if ex.plan.TailSerial {
			tail(m, x, y, k, 0, h.COO.NNZ())
			return
		}
		ex.dispatch(ex.plan.EntryBounds, tail, m, x, y, k)
	}
}

// hybFamily is the HYB table: hyb_basic's row-major sweep and the two-phase
// runner at each ELL body. The family is not part of NewLibrary: callers opt
// in with RegisterHYB (keeping the stock four-format system identical to the
// paper's).
func hybFamily[T matrix.Float]() family[T] {
	return family[T]{
		format: matrix.FormatHYB,
		single: []body[T]{
			{name: "hyb", alone: "_basic", run: runHYBBasic[T],
				over: []partition{whole}},
			{name: "hyb_width", strat: StratWidthSpec, run: hybPhases[T](hybELLChunk[T], hybCOOChunk[T]),
				over: []partition{whole, byRows}},
		},
		batch: []body[T]{
			{name: "hyb_batch", run: hybPhases[T](hybELLBatchChunk[T], hybCOOBatchChunk[T]),
				over: []partition{whole, byRows}},
		},
	}
}

// RegisterHYB adds the hybrid-format kernels to the library.
func (l *Library[T]) RegisterHYB() { l.instantiate(hybFamily[T]()) }
