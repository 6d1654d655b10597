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
//     population, producing ascending order without a comparison sort;
//   - the finished rows are always copied out of the scratch into
//     exact-size arrays, so no result keeps bound-sized memory alive.
//
// Because every result row depends only on its own inputs, the output is
// bit-for-bit identical whatever the chunking and whoever runs the chunks:
// pooled and caller-run dispatches at any chunk count agree exactly. The
// oracle pins it (oracle.CheckSpGEMM).

// GalerkinRAP computes the Galerkin triple product R·A·P in one row-fused
// pass: each output row scatters its R·A row into one dense accumulator and
// immediately pushes the merged row through P into a second, so the R·A
// intermediate lives only in accumulator cells, never as a materialised
// matrix.
//
// The rows are cut into threads chunks (threads ≤ 0: the pool's fan-out, or
// one without a pool) and dispatched through pool.RunChunks, so a nil or
// declining pool runs them on the caller. The floating-point association can
// differ from matrix.TripleProduct, so results agree with it to rounding, not
// bit-for-bit; runs of this function agree bit-for-bit at any chunk count on
// any pool (rows are independent).
func GalerkinRAP[T matrix.Float](r, a, p *matrix.CSR[T], pool *Pool[T], threads int) *matrix.CSR[T] {
	if r.Cols != a.Rows || a.Cols != p.Rows {
		panic("kernels: GalerkinRAP dimension mismatch")
	}
	ar, release := arenaOf(pool)
	defer release()
	// Bounds in O(nnz(A) + nnz(R)): ap[j] bounds row j of A·P, so summed
	// over R's entries it bounds an output row (ub, the output scratch
	// layout), while raUB sums the A rows R selects (the R·A scatter sizes,
	// the merge accumulator's scratch bound).
	ar.ap = growInts(ar.ap, a.Rows)
	ap := ar.ap
	for j := 0; j < a.Rows; j++ {
		n := 0
		for kk := a.RowPtr[j]; kk < a.RowPtr[j+1]; kk++ {
			k := a.ColIdx[kk]
			n += p.RowPtr[k+1] - p.RowPtr[k]
		}
		ap[j] = n
	}
	ar.ub = growInts(ar.ub, r.Rows+1)
	ar.raUB = growInts(ar.raUB, r.Rows+1)
	ub, raUB := ar.ub, ar.raUB
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
	ar.idx = growInts(ar.idx, ub[r.Rows])
	ar.val = growVals(ar.val, ub[r.Rows])
	colIdx, vals := ar.idx, ar.val
	out := &matrix.CSR[T]{Rows: r.Rows, Cols: p.Cols, RowPtr: make([]int, r.Rows+1)}
	if threads <= 0 && pool != nil {
		threads = pool.Threads()
	}
	bounds := nnzBalancedRowBounds(ub, threads)
	ar.reserveChunks(bounds, ub, raUB, p.Cols, a.Cols)
	pool.RunChunks(bounds, func(chunk, lo, hi int) {
		cs := &ar.chunks[chunk]
		cs.gen = rapRows(r, a, p, out.RowPtr, colIdx, vals,
			cs.acc, cs.mid, cs.cols, cs.midCols, cs.gen, ub[lo], lo, hi)
	})
	return stitch(out, colIdx, vals, ub, bounds)
}

// rapRows computes Galerkin rows [lo, hi) with one R·A merge per output
// row: phase one scatters the combined R·A row into mid (discovery order in
// midCols — a pure per-row property, so chunking never shows), and phase
// two pushes each merged entry through its P row into acc. The R·A
// intermediate never exists as a matrix, so nothing is written, compacted,
// re-read, or re-bounded between the phases. Zero merged entries are
// skipped, matching the explicit-zero drop a materialised intermediate
// would have applied.
//
//smat:hotpath
func rapRows[T matrix.Float](r, a, p *matrix.CSR[T], rowLen, colIdx []int, vals []T, acc, mid []accCell[T], cols, midCols []int, gen, cur, lo, hi int) int {
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
// the shared column/value staging arrays, and the per-chunk dense
// accumulators. A pool owns one arena, handed out under arenaOf; callers
// without one get a fresh arena that lives for a single call.
type spgemmArena[T matrix.Float] struct {
	ap     []int
	ub     []int
	raUB   []int
	idx    []int
	val    []T
	chunks []chunkScratch[T]
}

// chunkScratch is one chunk's dense accumulator set: acc/cols for the
// output row, mid/midCols for the merged R·A row. gen persists across
// products and stamps both accumulators: cells only ever hold past
// generations, so growing, shrinking, or switching matrices never requires
// clearing anything.
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

// arenaOf hands out the pool's arena, or a fresh one when there is no pool
// or another product currently owns it (concurrent callers stay correct,
// they just don't share scratch).
func arenaOf[T matrix.Float](pool *Pool[T]) (*spgemmArena[T], func()) {
	if pool == nil {
		return &spgemmArena[T]{}, func() {}
	}
	s := pool.s
	if !s.arenaMu.TryLock() {
		return &spgemmArena[T]{}, func() {}
	}
	if s.arena == nil {
		s.arena = &spgemmArena[T]{}
	}
	return s.arena, s.arenaMu.Unlock
}

// reserveChunks sizes the per-chunk accumulators for a dispatch over
// bounds: acc covers the result's column space and cols the chunk's largest
// row bound in ub; mid and midCols do the same for the R·A row against the
// intermediate's column space and raUB. Freshly grown stamps start at zero,
// below any live generation.
func (ar *spgemmArena[T]) reserveChunks(bounds, ub, raUB []int, cols, midCols int) {
	nchunks := len(bounds) - 1
	if len(ar.chunks) < nchunks {
		ar.chunks = append(ar.chunks, make([]chunkScratch[T], nchunks-len(ar.chunks))...)
	}
	for c := 0; c < nchunks; c++ {
		cs := &ar.chunks[c]
		cs.acc = growCells(cs.acc, cols)
		cs.cols = growInts(cs.cols, maxRowBound(ub, bounds[c], bounds[c+1]))
		cs.mid = growCells(cs.mid, midCols)
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
// then each chunk's region is copied into fresh exact-size arrays at its
// final offset, so the result owns its memory and aliases no scratch.
func stitch[T matrix.Float](out *matrix.CSR[T], colIdx []int, vals []T, ub, bounds []int) *matrix.CSR[T] {
	for r := 0; r < out.Rows; r++ {
		out.RowPtr[r+1] += out.RowPtr[r]
	}
	total := out.RowPtr[out.Rows]
	out.ColIdx, out.Vals = make([]int, total), make([]T, total)
	for c := 0; c < len(bounds)-1; c++ {
		lo, hi := bounds[c], bounds[c+1]
		n := out.RowPtr[hi] - out.RowPtr[lo]
		copy(out.ColIdx[out.RowPtr[lo]:], colIdx[ub[lo]:ub[lo]+n])
		copy(out.Vals[out.RowPtr[lo]:], vals[ub[lo]:ub[lo]+n])
	}
	return out
}
