// Package kernels implements SMAT's kernel library: for each storage format,
// a family of SpMV implementations assembled from optimization strategies
// (loop unrolling, row-parallel execution, nonzero-balanced partitioning,
// traversal order). Each family is one table of loop bodies and the
// partitions they run over, expanded into kernels by one generator and run by
// one runner (table.go). The scoreboard search in internal/autotune picks the
// best member per format for the host "architecture configuration" (thread
// count), mirroring the paper's Section 5.2.
package kernels

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"smat/internal/matrix"
)

// Strategy is a bitmask of the optimization strategies a kernel uses. The
// scoreboard algorithm scores strategies individually by comparing kernels
// that differ in exactly one bit.
type Strategy uint32

const (
	// StratParallel fans the computation out over OS threads.
	StratParallel Strategy = 1 << iota
	// StratUnroll4 unrolls the innermost loop by four.
	StratUnroll4
	// StratNNZBalance partitions work by equal nonzero count instead of
	// equal row count (only meaningful together with StratParallel).
	StratNNZBalance
	// StratRowMajor traverses DIA storage row-by-row instead of the paper's
	// default diagonal-major order, writing each y element once. ELL is
	// stored row-major, so every ELL body runs row by row; on ELL the flag
	// marks the row-range bodies a partition hands rows to.
	StratRowMajor
	// StratCacheBlock tiles the row dimension so the diagonal-major DIA
	// traversal re-reads y from L1 instead of memory.
	StratCacheBlock
	// StratWidthSpec dispatches ELL to fully-unrolled kernels specialised
	// for small fixed widths (no inner loop at all).
	StratWidthSpec
)

// StrategyNames lists each individual strategy with its display name.
var StrategyNames = []struct {
	S    Strategy
	Name string
}{
	{StratParallel, "parallel"},
	{StratUnroll4, "unroll4"},
	{StratNNZBalance, "nnzbalance"},
	{StratRowMajor, "rowmajor"},
	{StratCacheBlock, "cacheblock"},
	{StratWidthSpec, "widthspec"},
}

// String renders the strategy set, e.g. "parallel+unroll4".
func (s Strategy) String() string {
	if s == 0 {
		return "basic"
	}
	out := ""
	for _, sn := range StrategyNames {
		if s&sn.S != 0 {
			if out != "" {
				out += "+"
			}
			out += sn.Name
		}
	}
	return out
}

// Count returns the number of strategies in the set.
func (s Strategy) Count() int {
	n := 0
	for _, sn := range StrategyNames {
		if s&sn.S != 0 {
			n++
		}
	}
	return n
}

// Mat is a matrix held in one concrete storage format, ready for a kernel.
// Exactly the field named by Format is non-nil.
type Mat[T matrix.Float] struct {
	Format matrix.Format
	CSR    *matrix.CSR[T]
	COO    *matrix.COO[T]
	DIA    *matrix.DIA[T]
	ELL    *matrix.ELL[T]
	HYB    *matrix.HYB[T] // extension format, see matrix.FormatHYB

	// plan caches the execution plan (work partition) for the most recent
	// thread count; see PlanFor.
	plan atomic.Pointer[Plan]
	// bplan caches the batched execution plan for the most recent
	// (threads, batch width) pair; see PlanForBatch. A separate slot keeps
	// alternating MulVec / MulVecBatch traffic from thrashing one cache.
	bplan atomic.Pointer[Plan]
	// partitioned marks a handle whose plans waive the size cutoffs; see
	// Partitioned.
	partitioned bool
}

// Dims returns the matrix dimensions.
func (m *Mat[T]) Dims() (rows, cols int) {
	switch m.Format {
	case matrix.FormatCSR:
		return m.CSR.Rows, m.CSR.Cols
	case matrix.FormatCOO:
		return m.COO.Rows, m.COO.Cols
	case matrix.FormatDIA:
		return m.DIA.Rows, m.DIA.Cols
	case matrix.FormatELL:
		return m.ELL.Rows, m.ELL.Cols
	case matrix.FormatHYB:
		return m.HYB.Rows(), m.HYB.Cols()
	}
	panic("kernels: invalid format")
}

// Validate checks the structural invariants of the representation named by
// Format, delegating to the format's own Validate. It is the hook the
// differential oracle (internal/oracle) uses to check every conversion it
// exercises.
func (m *Mat[T]) Validate() error {
	switch m.Format {
	case matrix.FormatCSR:
		return m.CSR.Validate()
	case matrix.FormatCOO:
		return m.COO.Validate()
	case matrix.FormatDIA:
		return m.DIA.Validate()
	case matrix.FormatELL:
		return m.ELL.Validate()
	case matrix.FormatHYB:
		return m.HYB.Validate()
	}
	return fmt.Errorf("kernels: invalid format %v", m.Format)
}

// ToCSR converts the held representation back to CSR, the round-trip leg of
// the oracle's conversion checks. The CSR case returns the receiver's matrix
// unchanged.
func (m *Mat[T]) ToCSR() *matrix.CSR[T] {
	switch m.Format {
	case matrix.FormatCSR:
		return m.CSR
	case matrix.FormatCOO:
		return m.COO.ToCSR()
	case matrix.FormatDIA:
		return m.DIA.ToCSR()
	case matrix.FormatELL:
		return m.ELL.ToCSR()
	case matrix.FormatHYB:
		return m.HYB.ToCSR()
	}
	panic("kernels: invalid format")
}

// Stored returns the number of element slots the held representation stores,
// padding included — the work term of the conversion payoff model (see
// matrix.CSR.Stored).
func (m *Mat[T]) Stored() int {
	switch m.Format {
	case matrix.FormatCSR:
		return m.CSR.Stored()
	case matrix.FormatCOO:
		return m.COO.Stored()
	case matrix.FormatDIA:
		return m.DIA.Stored()
	case matrix.FormatELL:
		return m.ELL.Stored()
	case matrix.FormatHYB:
		return m.HYB.Stored()
	}
	panic("kernels: invalid format")
}

// ConvertTiming records the measured cost of one format conversion: the
// wall-clock seconds the conversion took and the number of element slots the
// target representation stores (its linear work term). It is the measurement
// hook the amortisation-aware tuner records in Decision.ConvertSec and the
// decision cache, so "is k SpMVs enough to pay for this conversion?" can be
// answered without converting again.
type ConvertTiming struct {
	Format matrix.Format
	Sec    float64
	Stored int
}

// Convert materialises a CSR matrix in the requested format. maxFill bounds
// DIA/ELL zero-fill as a multiple of NNZ (≤0: unlimited); conversion to an
// unsuitable format returns matrix.ErrFillExplosion.
func Convert[T matrix.Float](m *matrix.CSR[T], f matrix.Format, maxFill float64) (*Mat[T], error) {
	return ConvertFrom(m, nil, f, maxFill)
}

// ConvertFrom is the one conversion site; HYB always splits at the default
// width cut (matrix.CSR.ToHYB(-1)). l is a structure record of m when the
// caller holds one — the tuner does, from its row pass or from its structure
// index — and nil otherwise: ELL takes its width from the record instead of
// reading the row pointers again, and its fill guard rejects from it without
// touching the matrix. DIA takes the record's diagonals when it lists them
// and tallies them otherwise (matrix.CSR.ToDIAFrom): the returned DIA's
// Offsets are then the tally, for the caller to keep. A record of m's shape
// that is not m's fails with matrix.ErrStructureMismatch. The COO
// representation is a view sharing m's ColIdx and Vals (matrix.CSR.ToCOO), as
// the CSR one shares all of m.
func ConvertFrom[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64) (*Mat[T], error) {
	return convert(m, l, f, maxFill, matrix.Split{})
}

// convert is ConvertFrom with the DIA, ELL and COO conversions run in the
// row chunks of sp; the other formats ignore it.
func convert[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64, sp matrix.Split) (*Mat[T], error) {
	switch f {
	case matrix.FormatCSR:
		return &Mat[T]{Format: f, CSR: m}, nil
	case matrix.FormatCOO:
		return &Mat[T]{Format: f, COO: m.ToCOOSplit(sp)}, nil
	case matrix.FormatDIA:
		if l == nil {
			l = &matrix.Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}
		}
		d, err := m.ToDIAFrom(l, maxFill, sp)
		if err != nil {
			return nil, err
		}
		return &Mat[T]{Format: f, DIA: d}, nil
	case matrix.FormatELL:
		if l == nil {
			l = &matrix.Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), MaxDeg: m.MaxRowDegree()}
		}
		e, err := m.ToELLFrom(l, maxFill, sp)
		if err != nil {
			return nil, err
		}
		return &Mat[T]{Format: f, ELL: e}, nil
	case matrix.FormatHYB:
		return &Mat[T]{Format: f, HYB: m.ToHYB(-1)}, nil
	}
	return nil, fmt.Errorf("kernels: unknown format %v", f)
}

// ConvertTimed is ConvertFrom with the stopwatch attached: it reports
// how long the conversion took and how many slots it wrote. CSR "conversion"
// wraps the input in place and reports zero seconds — CSR is the zero-cost
// incumbent of the amortisation model. From ConvertWork nonzeros up, on a
// pool of more than one thread, the DIA, ELL and COO conversions run in
// nnz-balanced row chunks on the pool's workers (matrix.Split: the same bits
// as one chunk); a nil pool converts on the caller.
func ConvertTimed[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64, pool *Pool[T]) (*Mat[T], ConvertTiming, error) {
	if f == matrix.FormatCSR {
		return &Mat[T]{Format: f, CSR: m}, ConvertTiming{Format: f, Stored: m.Stored()}, nil
	}
	start := time.Now()
	var sp matrix.Split
	if pool != nil && pool.Threads() > 1 && m.NNZ() >= ConvertWork {
		sp = matrix.Split{Bounds: nnzBalancedRowBounds(m.RowPtr, pool.Threads()), Run: pool.RunChunks}
	}
	out, err := convert(m, l, f, maxFill, sp)
	sec := time.Since(start).Seconds()
	if err != nil {
		return nil, ConvertTiming{Format: f, Sec: sec}, err
	}
	return out, ConvertTiming{Format: f, Sec: sec, Stored: out.Stored()}, nil
}

// Kernel is one SpMV implementation for one format: an instance of a family's
// table (see table.go).
type Kernel[T matrix.Float] struct {
	Name       string
	Format     matrix.Format
	Strategies Strategy
	binding[T]
}

// runFn is a hand-written runner, for the few kernels that are not one chunk
// body over one partition (see body.run). k is the batch width, 1 for a
// single vector.
type runFn[T matrix.Float] func(m *Mat[T], x, y []T, k int, ex exec[T])

// exec carries the execution engine through one kernel invocation: the
// matrix's cached plan plus (optionally) the persistent worker pool. It is a
// small value type — threading it through kernel calls allocates nothing.
type exec[T matrix.Float] struct {
	plan *Plan
	pool *Pool[T]
}

// rangeFn is a chunk body: compute the piece of Y = A·X covered by work
// items [lo, hi). k is the batch width (the number of interleaved right-hand
// sides in x and y); single-vector chunks ignore it. Implementations are
// top-level functions, never closures, so dispatching them through the pool
// allocates nothing.
type rangeFn[T matrix.Float] func(m *Mat[T], x, y []T, k, lo, hi int)

// dispatch runs fn over the plan's chunk bounds: chunk t is
// [bounds[t], bounds[t+1]). See Pool.dispatch: the chunks fan out through the
// attached pool when it is free and run on the caller, in chunk order,
// otherwise.
//
//smat:hotpath
func (ex exec[T]) dispatch(bounds []int, fn rangeFn[T], m *Mat[T], x, y []T, k int) {
	ex.pool.dispatch(bounds, task[T]{fn: fn, mat: m, x: x, y: y, k: k})
}

// formatMismatch reports a kernel applied to the wrong format. The message
// formatting lives out of line — and is kept there with go:noinline — so the
// hot Run/RunPooled bodies stay allocation-free on the match path and the
// panic path's Sprintf is never inlined into them.
//
//go:noinline
func formatMismatch[T matrix.Float](k *Kernel[T], m *Mat[T]) {
	panic(fmt.Sprintf("kernels: %s kernel %q applied to %s matrix", k.Format, k.Name, m.Format))
}

// Run computes y = A·x (y is fully overwritten) on the calling goroutine.
// threads ≤ 0 selects GOMAXPROCS. threads only picks the matrix's cached plan:
// its chunks run one after another on the caller, and give the bits
// RunPooled gives on a pool of that many threads. A caller that wants the
// chunks to run in parallel holds a Pool and calls RunPooled.
//
//smat:hotpath
func (k *Kernel[T]) Run(m *Mat[T], x, y []T, threads int) {
	if m.Format != k.Format {
		formatMismatch(k, m)
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	k.run(m, x, y, 1, exec[T]{plan: m.PlanFor(threads)})
}

// RunPooled computes y = A·x on a persistent worker pool: the thread count
// was resolved once when the pool was built, the partition comes from the
// matrix's cached plan, and the dispatch allocates nothing — the steady-
// state SpMV path. A nil pool runs on the caller: Run with default threads.
//
//smat:hotpath
func (k *Kernel[T]) RunPooled(m *Mat[T], x, y []T, p *Pool[T]) {
	if p == nil {
		k.Run(m, x, y, 0)
		return
	}
	if m.Format != k.Format {
		formatMismatch(k, m)
	}
	plan := m.PlanFor(p.s.threads)
	p.s.countSerial(plan, k.Strategies)
	k.run(m, x, y, 1, exec[T]{plan: plan, pool: p})
}

// BatchKernel is one SpMM (multi-vector SpMV) implementation for one format:
// it computes Y = A·X for k right-hand sides held in the interleaved layout
// xb[col*k+j] / yb[row*k+j], so the k values per matrix column are contiguous
// and the inner loop over the RHS tile is a unit-stride streak.
type BatchKernel[T matrix.Float] struct {
	Name       string
	Format     matrix.Format
	Strategies Strategy
	binding[T]
}

// batchFormatMismatch mirrors formatMismatch for batched kernels; kept out of
// line so the hot Run/RunPooled bodies stay allocation-free.
//
//go:noinline
func batchFormatMismatch[T matrix.Float](b *BatchKernel[T], m *Mat[T]) {
	panic(fmt.Sprintf("kernels: %s batch kernel %q applied to %s matrix", b.Format, b.Name, m.Format))
}

// Run computes Y = A·X for k interleaved right-hand sides (yb is fully
// overwritten) on the calling goroutine. k ≤ 0 is a no-op; threads ≤ 0
// selects GOMAXPROCS. threads only picks the matrix's cached batch plan,
// whose serial cutoff scales the work estimate by k; its chunks run one after
// another on the caller (see Kernel.Run).
//
//smat:hotpath
func (b *BatchKernel[T]) Run(m *Mat[T], xb, yb []T, k, threads int) {
	if m.Format != b.Format {
		batchFormatMismatch(b, m)
	}
	if k <= 0 {
		return
	}
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	b.run(m, xb, yb, k, exec[T]{plan: m.PlanForBatch(threads, k)})
}

// RunPooled computes Y = A·X for k interleaved right-hand sides on a
// persistent worker pool — the steady-state batched serving path; the whole
// dispatch allocates nothing. A nil pool runs on the caller: Run with
// default threads.
//
//smat:hotpath
func (b *BatchKernel[T]) RunPooled(m *Mat[T], xb, yb []T, k int, p *Pool[T]) {
	if p == nil {
		b.Run(m, xb, yb, k, 0)
		return
	}
	if m.Format != b.Format {
		batchFormatMismatch(b, m)
	}
	if k <= 0 {
		return
	}
	plan := m.PlanForBatch(p.s.threads, k)
	p.s.countSerial(plan, b.Strategies)
	b.run(m, xb, yb, k, exec[T]{plan: plan, pool: p})
}

// Library is the full kernel collection for one element type.
type Library[T matrix.Float] struct {
	byFormat map[matrix.Format][]*Kernel[T]
	byName   map[string]*Kernel[T]

	batchByFormat map[matrix.Format][]*BatchKernel[T]
	batchByName   map[string]*BatchKernel[T]
}

// NewLibrary builds the registry of all kernel implementations.
func NewLibrary[T matrix.Float]() *Library[T] {
	l := &Library[T]{
		byFormat:      make(map[matrix.Format][]*Kernel[T]),
		byName:        make(map[string]*Kernel[T]),
		batchByFormat: make(map[matrix.Format][]*BatchKernel[T]),
		batchByName:   make(map[string]*BatchKernel[T]),
	}
	for _, fam := range []family[T]{csrFamily[T](), cooFamily[T](), diaFamily[T](), ellFamily[T]()} {
		l.instantiate(fam)
	}
	return l
}

// Register adds a kernel to the library (the paper's extensibility hook: new
// implementations join the scoreboard search without further changes).
func (l *Library[T]) Register(k *Kernel[T]) {
	if _, dup := l.byName[k.Name]; dup {
		panic(fmt.Sprintf("kernels: duplicate kernel %q", k.Name))
	}
	l.byFormat[k.Format] = append(l.byFormat[k.Format], k)
	l.byName[k.Name] = k
}

// RegisterBatch adds a batched kernel to the library. Batch kernels share
// the registry's extensibility contract but live in their own namespace
// (batched selection happens per format, after the single-vector scoreboard
// has chosen one).
func (l *Library[T]) RegisterBatch(b *BatchKernel[T]) {
	if _, dup := l.batchByName[b.Name]; dup {
		panic(fmt.Sprintf("kernels: duplicate batch kernel %q", b.Name))
	}
	l.batchByFormat[b.Format] = append(l.batchByFormat[b.Format], b)
	l.batchByName[b.Name] = b
}

// Observed returns a copy of the library whose every single-vector kernel
// calls hook each time it executes, by Run or RunPooled, pooled or serial. It
// is the seam for tests that count kernel executions: a serial Run never
// reaches a pool, so PoolStats cannot see it. Batch kernels are shared
// unchanged.
func (l *Library[T]) Observed(hook func()) *Library[T] {
	out := &Library[T]{
		byFormat:      make(map[matrix.Format][]*Kernel[T], len(l.byFormat)),
		byName:        make(map[string]*Kernel[T], len(l.byName)),
		batchByFormat: l.batchByFormat,
		batchByName:   l.batchByName,
	}
	for _, ks := range l.byFormat {
		for _, k := range ks {
			observed, inner := *k, k.binding
			observed.binding = binding[T]{part: inner.part, hand: func(m *Mat[T], x, y []T, width int, ex exec[T]) {
				hook()
				inner.run(m, x, y, width, ex)
			}}
			out.Register(&observed)
		}
	}
	return out
}

// ForFormat returns all kernels registered for a format.
func (l *Library[T]) ForFormat(f matrix.Format) []*Kernel[T] { return l.byFormat[f] }

// Lookup returns the kernel with the given name, or nil.
func (l *Library[T]) Lookup(name string) *Kernel[T] { return l.byName[name] }

// ForFormatBatch returns all batched kernels registered for a format.
func (l *Library[T]) ForFormatBatch(f matrix.Format) []*BatchKernel[T] { return l.batchByFormat[f] }

// BatchFor returns the batched kernel the serving path should use for a
// format: the variant carrying StratParallel (every one degrades to its
// serial body below the plan cutoff), falling back to the format's basic
// batch kernel, or nil when the format has none registered.
func (l *Library[T]) BatchFor(f matrix.Format) *BatchKernel[T] {
	var basic *BatchKernel[T]
	for _, b := range l.batchByFormat[f] {
		if b.Strategies&StratParallel != 0 {
			return b
		}
		if b.Strategies == 0 {
			basic = b
		}
	}
	return basic
}

// Names returns all registered kernel names grouped by format order.
func (l *Library[T]) Names() []string {
	var names []string
	for _, f := range matrix.Formats {
		for _, k := range l.byFormat[f] {
			names = append(names, k.Name)
		}
	}
	return names
}

// Basic returns the format's reference implementation (no strategies), which
// anchors the scoreboard search and the paper's overhead unit (CSR-SpMV).
func (l *Library[T]) Basic(f matrix.Format) *Kernel[T] {
	for _, k := range l.byFormat[f] {
		if k.Strategies == 0 {
			return k
		}
	}
	return nil
}

// FLOPs returns the floating-point operation count of one SpMV on a matrix
// with the given number of nonzeros (one multiply and one add per entry),
// the paper's GFLOPS denominator.
func FLOPs(nnz int) int64 { return 2 * int64(nnz) }

// nnzBalancedRowBounds partitions rows into at most `threads` chunks of
// roughly equal nonzero count using the CSR row pointer.
func nnzBalancedRowBounds(rowPtr []int, threads int) []int {
	rows := len(rowPtr) - 1
	nnz := rowPtr[rows]
	if threads > rows {
		threads = rows
	}
	if threads < 1 {
		threads = 1
	}
	bounds := make([]int, 0, threads+1)
	bounds = append(bounds, 0)
	for t := 1; t < threads; t++ {
		target := nnz * t / threads
		// Binary search the first row whose prefix exceeds the target.
		lo, hi := bounds[len(bounds)-1], rows
		for lo < hi {
			mid := (lo + hi) / 2
			if rowPtr[mid] < target {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, rows)
	return bounds
}
