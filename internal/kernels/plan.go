package kernels

import "smat/internal/matrix"

// SerialWork is the estimated-work cutoff below which parallel kernels run
// their serial body. The estimate counts stored entries (including padding),
// not rows, so a short-and-fat matrix still parallelises while a tall matrix
// with a handful of nonzeros per chunk does not.
//
// The value is read off a measurement: the cutoff sweep in BENCH_steady.json
// (smat-bench -experiment steady, 2 threads) times each format's one-thread
// kernel against its pooled sibling from 1 k to 1 M stored entries. Back to
// back — the workers still polling when the next call arrives, the state of
// a MulVec stream — the pool loses at 1 k – 2 k entries and wins 1.4–2× from
// 4 k or 8 k up, depending on the sweep (derived_serial_work: the smallest
// size from which it wins in every format). The constant is the upper edge
// of that band. The sweep's other column, the first call after an idle gap
// that has let the workers park, pays an OS wake and wins only from 131 k –
// 524 k entries (derived_gapped_work); the constant does not follow that
// column, because a cutoff there forfeits the pool on every stream in
// between, while the loss it avoids is bounded by one wake (12–30 µs below
// 100 k entries) per idle gap. PoolStats.Woken counts those dispatches.
// One constant, no option: re-run the sweep and edit this line when the
// barrier or the box of record changes.
const SerialWork = 8192

// ConvertWork is the nonzero count from which a tune's DIA, ELL and COO
// conversions run in row chunks on the tuner's pool (ConvertTimedParams), and
// from which the tuner wakes the pool's workers as the tune starts
// (Pool.Warm), so that the OS wake overlaps the structure scan instead of the
// split. It sits above SerialWork because a conversion is one dispatch per
// tune, after an idle gap: it always pays a wake, where a MulVec stream finds
// its workers still spinning from the call before. The value is read off a
// sweep of cold_tune's op cost at 8 k / 16 k / 32 k / 64 k against the
// unsplit parent (DESIGN §11, EXPERIMENTS "Pooled conversion"): 16 k had the
// lowest median, and beat 32 k in 6 of 6 head-to-head pairs. One constant, no
// option: re-run the sweep and edit this line when the barrier or the box of
// record changes.
const ConvertWork = 16384

// Plan is a matrix's cached execution plan for one thread count: every work
// partition a kernel of its format may need, computed once on first use and
// reused by each subsequent Run/RunPooled. Before plans, the partition was
// recomputed on every call — `threads` binary searches over the CSR row
// pointer, or a rescan of the COO row indices, per SpMV.
type Plan struct {
	// Threads is the effective thread count the partitions target.
	Threads int
	// BatchK is the batch width the serial cutoff was evaluated at: plans
	// built by PlanFor have BatchK 1, batched plans record the width so the
	// cache slot can be keyed on (Threads, BatchK). The partitions
	// themselves are width-independent (bounds stay in row/entry units).
	BatchK int
	// Serial reports that the estimated work is below the parallel cutoff
	// (or Threads is 1): parallel kernels take their serial body and the
	// bounds slices below are nil.
	Serial bool
	// RowBounds splits the row dimension evenly (CSR/ELL/DIA rows, BCSR
	// block rows): chunk t covers rows [RowBounds[t], RowBounds[t+1]).
	RowBounds []int
	// NNZBounds splits CSR rows into chunks of roughly equal nonzero count
	// (the nnz-balanced kernels' partition).
	NNZBounds []int
	// EntryBounds splits COO entries on row boundaries — roughly equal
	// nonzeros per chunk with no cross-chunk y writes. For HYB it covers
	// the COO tail.
	EntryBounds []int
	// TailSerial reports that the HYB COO tail is below the cutoff on its
	// own and accumulates serially after the parallel ELL phase.
	TailSerial bool
}

// PlanFor returns the matrix's execution plan for the given thread count
// (values < 1 are treated as 1), computing and caching it on first use. The
// cache holds one plan — steady state runs one thread count per matrix — and
// is safe for concurrent use: racing computations produce identical plans
// and the last writer simply overwrites.
//
//smat:hotpath
func (m *Mat[T]) PlanFor(threads int) *Plan {
	if threads < 1 {
		threads = 1
	}
	if p := m.plan.Load(); p != nil && p.Threads == threads {
		return p
	}
	p := newPlan(m, threads, 1)
	m.plan.Store(p)
	return p
}

// Partitioned returns a second handle on m's storage whose plans waive the
// serial cutoff: above one thread every plan it builds is partitioned. The
// differential oracle checks the parallel paths on its smallest specs through
// it, and the sweep SerialWork is read off (smat-bench -experiment steady)
// times the pool below the constant. m's own plan cache is not touched.
func (m *Mat[T]) Partitioned() *Mat[T] {
	return &Mat[T]{Format: m.Format, CSR: m.CSR, COO: m.COO, DIA: m.DIA, ELL: m.ELL, HYB: m.HYB, BCSR: m.BCSR, partitioned: true}
}

// PlanForBatch returns the execution plan for a batched multiply of width k:
// the same row/entry partitions as PlanFor, but with the serial-cutoff work
// estimate scaled by k — a matrix too small to parallelise one vector may
// well clear the cutoff with eight. Widths ≤ 1 share the single-vector plan;
// wider plans cache in their own slot keyed on (threads, k).
//
//smat:hotpath
func (m *Mat[T]) PlanForBatch(threads, k int) *Plan {
	if k <= 1 {
		return m.PlanFor(threads)
	}
	if threads < 1 {
		threads = 1
	}
	if p := m.bplan.Load(); p != nil && p.Threads == threads && p.BatchK == k {
		return p
	}
	p := newPlan(m, threads, k)
	m.bplan.Store(p)
	return p
}

func newPlan[T matrix.Float](m *Mat[T], threads, batchK int) *Plan {
	p := &Plan{Threads: threads, BatchK: batchK}
	work, cutoff := 0, SerialWork
	if m.partitioned {
		cutoff = 0
	}
	switch m.Format {
	case matrix.FormatCSR:
		work = m.CSR.NNZ()
	case matrix.FormatCOO:
		work = m.COO.NNZ()
	case matrix.FormatDIA:
		work = m.DIA.Rows * len(m.DIA.Offsets)
	case matrix.FormatELL:
		work = m.ELL.Rows * m.ELL.Width
	case matrix.FormatHYB:
		work = m.HYB.ELL.Rows*m.HYB.ELL.Width + m.HYB.COO.NNZ()
	case matrix.FormatBCSR:
		work = len(m.BCSR.Blocks)
	}
	// A batched multiply does k times the work per stored entry, so the
	// cutoff compares against the scaled estimate.
	if threads <= 1 || work*batchK < cutoff {
		p.Serial = true
		return p
	}
	switch m.Format {
	case matrix.FormatCSR:
		p.RowBounds = evenBounds(m.CSR.Rows, threads)
		p.NNZBounds = nnzBalancedRowBounds(m.CSR.RowPtr, threads)
	case matrix.FormatCOO:
		p.EntryBounds = cooBounds(m.COO, threads)
	case matrix.FormatDIA:
		p.RowBounds = evenBounds(m.DIA.Rows, threads)
	case matrix.FormatELL:
		p.RowBounds = evenBounds(m.ELL.Rows, threads)
	case matrix.FormatHYB:
		p.RowBounds = evenBounds(m.HYB.ELL.Rows, threads)
		if m.HYB.COO.NNZ()*batchK < cutoff {
			p.TailSerial = true
		} else {
			p.EntryBounds = cooBounds(m.HYB.COO, threads)
		}
	case matrix.FormatBCSR:
		p.RowBounds = evenBounds(m.BCSR.BlockRows(), threads)
	}
	return p
}

// evenBounds splits [0, n) into min(threads, n) equal chunks.
func evenBounds(n, threads int) []int {
	if threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	bounds := make([]int, threads+1)
	for t := 1; t <= threads; t++ {
		bounds[t] = t * n / threads
	}
	return bounds
}
