package kernels

import "smat/internal/matrix"

// Row-blocked sparse triple products for AMG hierarchy setup.
//
// matrix.Mul and matrix.TripleProduct are the single-threaded Gustavson
// references. GalerkinRAP keeps their ascending-column output and
// explicit-zero drop but restructures the storage management so rows can be
// computed in parallel chunks over the kernel worker pool:
//
//   - an O(nnz) upper-bound pass sizes every result row before any numeric
//     work, so the scratch arrays are sized exactly once (matrix.Mul grows
//     its output with append, paying repeated copy-on-grow);
//   - rows are partitioned into contiguous chunks balanced by upper-bound
//     work (reusing the SpMV nnz-balanced partitioner on the bound's prefix
//     sum), each chunk writing into its private region of the shared scratch
//     with a per-chunk dense accumulator;
//   - the scratch lives in an arena attached to the worker pool and is
//     reused across calls — repeated products (a multi-level hierarchy
//     setup) pay no repeated allocation or zeroing, because the dense
//     accumulators are generation-stamped and never cleared;
//   - accumulated rows drain through a window sweep over the generation
//     stamps whenever the row's column span is dense relative to its
//     population, producing ascending order without a comparison sort.
//
// Because every result row depends only on its own inputs, the output is
// bit-for-bit identical whatever the chunking and whoever runs the chunks:
// pooled and caller-run dispatches at any chunk count agree exactly. The
// oracle pins it (oracle.CheckSpGEMM).

// GalerkinRAP computes the Galerkin triple product R·A·P, choosing its
// strategy from the operands' structure: either one fused Gustavson pass
// (each R entry expands A's row directly through P's rows, so the R·A
// combination is never formed) or a row-fused two-phase pass (each output
// row scatters R·A into one dense accumulator and immediately pushes the
// merged row through P into a second — the R·A intermediate lives only in
// accumulator cells, never as a materialised matrix). The fused pass
// revisits each A·P row once per R entry selecting it, so it wins exactly
// when rows of R are near-singletons (aggressive coarsening); the O(nnz)
// bound pass that sizes the result also yields both cost estimates, and the
// cheaper strategy runs.
//
// The rows are cut into threads chunks (threads ≤ 0: the pool's fan-out, or
// one without a pool) and dispatched through pool.RunChunks, so a nil or
// declining pool runs them on the caller. The floating-point association can
// differ from matrix.TripleProduct, so results agree with it to rounding, not
// bit-for-bit; runs of this function agree bit-for-bit at any chunk count on
// any pool (the strategy choice depends only on the operands, and rows are
// independent).
func GalerkinRAP[T matrix.Float](r, a, p *matrix.CSR[T], pool *Pool[T], threads int) *matrix.CSR[T] {
	if r.Cols != a.Rows || a.Cols != p.Rows {
		panic("kernels: GalerkinRAP dimension mismatch")
	}
	ar, release := arenaOf(pool)
	defer release()
	// Cost model in O(nnz(A) + nnz(R)): ap[j] is the flop bound of row j of
	// A·P; summed over R's entries it is the fused pass's total work (and the
	// output scratch bound for both strategies), while raCost is the two-phase
	// pass's extra first-phase work. The two-phase second phase runs on the
	// merged R·A rows (less than fusedCost whenever R rows overlap), so fused
	// must beat raCost with a margin to be picked.
	ar.flops = growInts(ar.flops, a.Rows)
	ap := ar.flops
	for j := 0; j < a.Rows; j++ {
		n := 0
		for kk := a.RowPtr[j]; kk < a.RowPtr[j+1]; kk++ {
			k := a.ColIdx[kk]
			n += p.RowPtr[k+1] - p.RowPtr[k]
		}
		ap[j] = n
	}
	// One pass over R builds both bound prefixes: ub (fused flops, the output
	// scratch layout for either strategy) and raUB (first-phase scatter sizes,
	// the two-phase accumulator scratch bound).
	ar.ub = growInts(ar.ub, r.Rows+1)
	ar.ub2 = growInts(ar.ub2, r.Rows+1)
	ub, raUB := ar.ub, ar.ub2
	ub[0], raUB[0] = 0, 0
	for i := 0; i < r.Rows; i++ {
		nf, nr := 0, 0
		for jj := r.RowPtr[i]; jj < r.RowPtr[i+1]; jj++ {
			j := r.ColIdx[jj]
			nf += ap[j]
			nr += a.RowPtr[j+1] - a.RowPtr[j]
		}
		ub[i+1] = ub[i] + nf
		raUB[i+1] = raUB[i] + nr
	}
	fusedCost, raCost := ub[r.Rows], raUB[r.Rows]
	ar.idx = growInts(ar.idx, ub[r.Rows])
	ar.val = growVals(ar.val, ub[r.Rows])
	colIdx, vals := ar.idx, ar.val
	out := &matrix.CSR[T]{Rows: r.Rows, Cols: p.Cols, RowPtr: make([]int, r.Rows+1)}
	if threads <= 0 && pool != nil {
		threads = pool.Threads()
	}
	bounds := nnzBalancedRowBounds(ub, threads)
	ar.reserveChunks(bounds, ub, p.Cols)
	if 20*fusedCost < 37*raCost { // fusedCost < 1.85·raCost
		pool.RunChunks(bounds, func(chunk, lo, hi int) {
			cs := &ar.chunks[chunk]
			cs.gen = rapRows(r, a, p, out.RowPtr, colIdx, vals, cs.acc, cs.cols, cs.gen, ub[lo], lo, hi)
		})
	} else {
		ar.reserveMidChunks(bounds, raUB, a.Cols)
		pool.RunChunks(bounds, func(chunk, lo, hi int) {
			cs := &ar.chunks[chunk]
			cs.gen = rapTwoPhaseRows(r, a, p, out.RowPtr, colIdx, vals,
				cs.acc, cs.mid, cs.cols, cs.midCols, cs.gen, ub[lo], lo, hi)
		})
	}
	return stitch(out, colIdx, vals, ub, bounds, !ar.private)
}

// rapRows computes fused Galerkin rows [lo, hi): for each R entry (i, j)
// the A row j is scaled and scattered through the matching P rows into the
// dense accumulator, skipping the R·A combination entirely.
//
//smat:hotpath
func rapRows[T matrix.Float](r, a, p *matrix.CSR[T], rowLen, colIdx []int, vals []T, acc []accCell[T], cols []int, gen, cur, lo, hi int) int {
	pRowPtr, pColIdx, pVals := p.RowPtr, p.ColIdx, p.Vals
	for i := lo; i < hi; i++ {
		gen++
		ncols := 0
		cmin, cmax := int(^uint(0)>>1), -1
		for jj := r.RowPtr[i]; jj < r.RowPtr[i+1]; jj++ {
			j := r.ColIdx[jj]
			rv := r.Vals[jj]
			for kk := a.RowPtr[j]; kk < a.RowPtr[j+1]; kk++ {
				k := a.ColIdx[kk]
				rav := rv * a.Vals[kk]
				for pp := pRowPtr[k]; pp < pRowPtr[k+1]; pp++ {
					c := pColIdx[pp]
					cell := &acc[c]
					if cell.gen != gen {
						cell.gen = gen
						cell.val = 0
						cols[ncols] = c
						ncols++
						if c < cmin {
							cmin = c
						}
						if c > cmax {
							cmax = c
						}
					}
					cell.val += rav * pVals[pp]
				}
			}
		}
		n := gatherSorted(acc, cols, ncols, gen, cmin, cmax, colIdx, vals, cur)
		rowLen[i+1] = n
		cur += n
	}
	return gen
}

// rapTwoPhaseRows computes Galerkin rows [lo, hi) with one R·A merge per
// output row: phase one scatters the combined R·A row into mid (discovery
// order in midCols — a pure per-row property, so chunking never shows), and
// phase two pushes each merged entry through its P row into acc. The R·A
// intermediate never exists as a matrix, so nothing is written, compacted,
// re-read, or re-bounded between the phases. Zero merged entries are
// skipped, matching the explicit-zero drop a materialised intermediate
// would have applied.
//
//smat:hotpath
func rapTwoPhaseRows[T matrix.Float](r, a, p *matrix.CSR[T], rowLen, colIdx []int, vals []T, acc, mid []accCell[T], cols, midCols []int, gen, cur, lo, hi int) int {
	aRowPtr, aColIdx, aVals := a.RowPtr, a.ColIdx, a.Vals
	pRowPtr, pColIdx, pVals := p.RowPtr, p.ColIdx, p.Vals
	for i := lo; i < hi; i++ {
		gen++
		nmid := 0
		for jj := r.RowPtr[i]; jj < r.RowPtr[i+1]; jj++ {
			j := r.ColIdx[jj]
			rv := r.Vals[jj]
			for kk := aRowPtr[j]; kk < aRowPtr[j+1]; kk++ {
				k := aColIdx[kk]
				cell := &mid[k]
				if cell.gen != gen {
					cell.gen = gen
					cell.val = 0
					midCols[nmid] = k
					nmid++
				}
				cell.val += rv * aVals[kk]
			}
		}
		ncols := 0
		cmin, cmax := int(^uint(0)>>1), -1
		for _, k := range midCols[:nmid] {
			av := mid[k].val
			if av == 0 {
				continue
			}
			for kk := pRowPtr[k]; kk < pRowPtr[k+1]; kk++ {
				c := pColIdx[kk]
				cell := &acc[c]
				if cell.gen != gen {
					cell.gen = gen
					cell.val = 0
					cols[ncols] = c
					ncols++
					if c < cmin {
						cmin = c
					}
					if c > cmax {
						cmax = c
					}
				}
				cell.val += av * pVals[kk]
			}
		}
		n := gatherSorted(acc, cols, ncols, gen, cmin, cmax, colIdx, vals, cur)
		rowLen[i+1] = n
		cur += n
	}
	return gen
}

// gatherSorted drains one accumulated row into colIdx/vals at cur in
// ascending column order, dropping explicit zeros, and returns the entry
// count. When the row's column window [cmin, cmax] is dense relative to its
// population it sweeps the window directly off the generation stamps —
// already sorted, no comparison sort at all, the common case on matrices
// with banded structure — and falls back to sort-and-gather otherwise. Both
// branches produce identical output, so the choice never shows in results.
//
//smat:hotpath
func gatherSorted[T matrix.Float](acc []accCell[T], cols []int, ncols, gen, cmin, cmax int, colIdx []int, vals []T, cur int) int {
	n := 0
	if cmax-cmin < 4*ncols {
		for c := cmin; c <= cmax; c++ {
			cell := &acc[c]
			if cell.gen == gen {
				if v := cell.val; v != 0 {
					colIdx[cur+n] = c
					vals[cur+n] = v
					n++
				}
			}
		}
		return n
	}
	matrix.SortInts(cols[:ncols])
	for _, c := range cols[:ncols] {
		if v := acc[c].val; v != 0 {
			colIdx[cur+n] = c
			vals[cur+n] = v
			n++
		}
	}
	return n
}

// spgemmArena is the reusable scratch for the products: the bound prefixes,
// the shared column/value staging arrays, the cost-model scratch, and the
// per-chunk dense accumulators. A pool owns one arena, handed out under
// arenaOf; callers without one get a private arena that lives for a single
// call.
type spgemmArena[T matrix.Float] struct {
	ub     []int
	ub2    []int
	idx    []int
	val    []T
	flops  []int
	chunks []chunkScratch[T]

	// private marks a single-call arena: its arrays die with the call, so a
	// finalised result may alias them instead of copying out.
	private bool
}

// chunkScratch is one chunk's dense accumulator set: acc/cols for the
// output row, mid/midCols for the two-phase pass's merged R·A row. gen
// persists across products and stamps both accumulators: cells only ever
// hold past generations, so growing, shrinking, or switching matrices never
// requires clearing anything.
type chunkScratch[T matrix.Float] struct {
	acc     []accCell[T]
	cols    []int
	mid     []accCell[T]
	midCols []int
	gen     int
}

// accCell packs the accumulator value with its generation stamp so each
// scatter touches one cache line, not two parallel arrays.
type accCell[T matrix.Float] struct {
	gen int
	val T
}

// arenaOf hands out the pool's arena, or a fresh private one when there is
// no pool or another product currently owns it (concurrent callers stay
// correct, they just don't share scratch).
func arenaOf[T matrix.Float](pool *Pool[T]) (*spgemmArena[T], func()) {
	if pool == nil {
		return &spgemmArena[T]{private: true}, func() {}
	}
	s := pool.s
	if !s.arenaMu.TryLock() {
		return &spgemmArena[T]{private: true}, func() {}
	}
	if s.arena == nil {
		s.arena = &spgemmArena[T]{}
	}
	return s.arena, s.arenaMu.Unlock
}

// reserveChunks sizes the per-chunk output accumulators for a dispatch over
// bounds: acc covers the result's column space, cols the chunk's largest
// row bound. Freshly grown stamps start at zero, below any live generation.
func (ar *spgemmArena[T]) reserveChunks(bounds, ub []int, cols int) {
	nchunks := len(bounds) - 1
	if len(ar.chunks) < nchunks {
		ar.chunks = append(ar.chunks, make([]chunkScratch[T], nchunks-len(ar.chunks))...)
	}
	for c := 0; c < nchunks; c++ {
		cs := &ar.chunks[c]
		cs.acc = growCells(cs.acc, cols)
		cs.cols = growInts(cs.cols, maxRowBound(ub, bounds[c], bounds[c+1]))
	}
}

// reserveMidChunks sizes the two-phase pass's merge accumulators the same
// way, against the intermediate's column space and row bounds. It must run
// after reserveChunks has fixed the chunk count for this dispatch.
func (ar *spgemmArena[T]) reserveMidChunks(bounds, raUB []int, cols int) {
	for c := 0; c < len(bounds)-1; c++ {
		cs := &ar.chunks[c]
		cs.mid = growCells(cs.mid, cols)
		cs.midCols = growInts(cs.midCols, maxRowBound(raUB, bounds[c], bounds[c+1]))
	}
}

func growInts(b []int, n int) []int {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int, n)
}

func growVals[T matrix.Float](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

func growCells[T matrix.Float](b []accCell[T], n int) []accCell[T] {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]accCell[T], n)
}

// maxRowBound returns the largest single-row upper bound in [lo, hi): the
// column-scratch size that makes the row loops append-free.
func maxRowBound(ub []int, lo, hi int) int {
	m := 0
	for r := lo; r < hi; r++ {
		if n := ub[r+1] - ub[r]; n > m {
			m = n
		}
	}
	return m
}

// stitch finalises a chunked product whose rows were written densely at
// their upper-bound offsets: the row sizes in out.RowPtr are prefix-summed,
// then each chunk's region lands at its final offset — copied into fresh
// exact-size arrays when the result must own its memory, or compacted left
// in place (actual ≤ bound, so the copies never overlap destructively) when
// it may alias the arena.
func stitch[T matrix.Float](out *matrix.CSR[T], colIdx []int, vals []T, ub, bounds []int, finalize bool) *matrix.CSR[T] {
	for r := 0; r < out.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	total := out.RowPtr[out.Rows]
	nchunks := len(bounds) - 1
	if finalize {
		oc := make([]int, total)
		ov := make([]T, total)
		for c := 0; c < nchunks; c++ {
			lo, hi := bounds[c], bounds[c+1]
			n := out.RowPtr[hi] - out.RowPtr[lo]
			copy(oc[out.RowPtr[lo]:], colIdx[ub[lo]:ub[lo]+n])
			copy(ov[out.RowPtr[lo]:], vals[ub[lo]:ub[lo]+n])
		}
		out.ColIdx, out.Vals = oc, ov
		return out
	}
	for c := 1; c < nchunks; c++ {
		lo, hi := bounds[c], bounds[c+1]
		dst, src := out.RowPtr[lo], ub[lo]
		if dst == src {
			continue
		}
		n := out.RowPtr[hi] - out.RowPtr[lo]
		copy(colIdx[dst:dst+n], colIdx[src:src+n])
		copy(vals[dst:dst+n], vals[src:src+n])
	}
	out.ColIdx = colIdx[:total:total]
	out.Vals = vals[:total:total]
	return out
}
