package autotune

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// Decision records everything about one runtime tuning decision, feeding the
// paper's Table 3 (prediction, fallback, overhead in CSR-SpMV units). The
// provenance, choice and payoff fields are written once, by the record stage,
// onto a record that starts fresh for every attempt: they describe this
// call's own stages and nothing else.
type Decision struct {
	// Features is what extract learned of the matrix. When ColumnPassSkipped
	// is set, Ndiags, NTdiagsRatio and ERDIA are zero and unknown.
	Features features.Features

	// Predicted is the model's format when PredictedOK; Confidence is the
	// matched rule-group confidence.
	Predicted   matrix.Format
	PredictedOK bool
	Confidence  float64

	// UsedFallback reports that the execute-and-measure path ran; Measured
	// holds the GFLOPS of each format it timed — the contenders only (tuned
	// CSR plus the formats the ruleset left open): a feasible format absent
	// from the map was not measured, not slower.
	UsedFallback bool
	Measured     map[matrix.Format]float64

	// CacheHit reports that the decision was served from the tuner's
	// feature-keyed cache: no rule evaluation or measurement ran, only
	// feature extraction and format conversion. On a hit, Predicted and
	// Confidence describe the cached entry.
	CacheHit bool

	// StructureHit reports that Features — and the layout the conversion
	// worked from — were recalled from the cache's structure index under the
	// matrix's pattern signature (TuneOptions.Pattern), not scanned: the tune
	// did not read RowPtr or ColIdx before converting — unless the record was
	// one of the row pass alone and this call needed the diagonals after all
	// (ColumnPassSkipped is then false). It is independent of CacheHit, which
	// is about the decision.
	StructureHit bool

	// ColumnPassSkipped reports that the tune never read ColIdx to decide: the
	// O(rows) pass over RowPtr settled the ruleset on a confident ELL, CSR or
	// COO pick — the full features' pick — or a format hint asked for no
	// diagonal. The decision cache is keyed by Features as they stand.
	ColumnPassSkipped bool

	// Chosen is the format the returned operator serves (or, for a pending
	// background conversion, will serve once the swap lands); Kernel the
	// implementation name.
	Chosen matrix.Format
	Kernel string

	// Params records the tunable parameters behind the decision: the
	// conversion-level knobs the operator's matrix was materialised with
	// (BCSR block shape, HYB width cut) and the chosen kernel instance's
	// unroll depth. The zero value means the fixed menu — a v1 model, or a
	// format the search left at its defaults.
	Params kernels.Params

	// IterationHint is the caller's expected number of remaining SpMVs
	// (TuneOptions.Iterations); 0 when the caller gave none, in which case
	// the decision is the paper's asymptotic one and the amortisation fields
	// below are purely informational.
	IterationHint int

	// Asymptotic is the format tuning would choose if the matrix lived
	// forever, i.e. with conversion cost fully amortised. Chosen differs from
	// it only when the iteration hint made converting uneconomical.
	Asymptotic matrix.Format

	// BreakEvenIters is the number of SpMVs at which converting to Asymptotic
	// pays off against serving tuned CSR: conversion is worth it for
	// IterationHint ≥ BreakEvenIters. It is 0 when Asymptotic is CSR (there
	// is nothing to pay off, or the probe did not run) and NeverAmortize when
	// the converted format never beats the CSR incumbent.
	BreakEvenIters int

	// Amortized reports that the iteration hint overrode the asymptotic
	// winner: the operator serves tuned CSR because IterationHint SpMVs
	// cannot pay for the conversion.
	Amortized bool

	// Converted reports that the returned operator was already materialised
	// in its final (Chosen) format when tuning returned. It is false only
	// while a background conversion is pending — see
	// Operator.ConversionState.
	Converted bool

	// ChosenSpMVSec and IncumbentSec are the per-SpMV seconds of the chosen
	// format and of the tuned-CSR incumbent — the two rates of the payoff
	// model behind BreakEvenIters. ConvertStored is the number of element
	// slots the conversion wrote (the work term conversion time scales with).
	ChosenSpMVSec float64
	IncumbentSec  float64
	ConvertStored int

	// Timing breakdown (seconds); each field is written by exactly one stage
	// of the pipeline (stages.go). FeatureSec: extract — whatever of the
	// structure scan ran, a column pass a later stage had to ask for included,
	// and the features derived from it. FallbackSec: the execute-and-measure
	// selector, its contenders' conversions and runs included.
	// AmortProbeSec: the leader's probe — the per-SpMV rate probes behind
	// BreakEvenIters and their baseline run, only under an iteration hint.
	// ConvertSec: record — the conversion this call performed for the chosen
	// format, or, while a background conversion is pending, the cached
	// leader's measurement of it (excluded from TuneSec: the worker pays it
	// off the caller's critical path). Stages that did not run leave zero.
	//
	// CSRSpMVSec is one CSR SpMV on this matrix, the unit of Overhead. On the
	// execute-and-measure path it is the tuned-CSR incumbent's first timed run
	// (pooled, cold: the first kernel the call runs); under an iteration hint
	// on a predicted leader it is one run of the basic serial CSR kernel, the
	// yardstick of the rate probes' budget. It is 0 on every other path: a
	// predicted, format-hinted or cache-hit tune runs no kernel.
	//
	// BatchProbeSec is 0 on every decision: the batch crossover is no stage of
	// tuning. The engine measures it on its first MulVecBatch of two or more
	// vectors (Operator.BatchCrossover reads it, Tuner.Stats reports the
	// probes' seconds), so it is no part of Overhead either. The field remains
	// for readers of the per-stage breakdown.
	FeatureSec    float64
	ConvertSec    float64
	FallbackSec   float64
	BatchProbeSec float64
	AmortProbeSec float64
	CSRSpMVSec    float64
}

// TuneSec returns the seconds the tuning call spent in its stages: the
// numerator of the paper's Table 3 overhead.
func (d *Decision) TuneSec() float64 {
	convert := d.ConvertSec
	if !d.Converted && d.CacheHit {
		// Background conversion: the worker pays ConvertSec off the caller's
		// critical path, so it is not part of the caller-visible cost.
		convert = 0
	}
	return d.FeatureSec + convert + d.FallbackSec + d.AmortProbeSec
}

// Overhead returns the total decision cost in multiples of one CSR-SpMV
// execution, the unit of the paper's Table 3 — or 0 when the tune did not
// measure that unit (see CSRSpMVSec): a caller that wants the ratio on such a
// path divides TuneSec by its own measurement of the unit.
func (d *Decision) Overhead() float64 {
	if d.CSRSpMVSec <= 0 {
		return 0
	}
	return d.TuneSec() / d.CSRSpMVSec
}

// engine is the swappable execution state of an Operator: the matrix
// materialised in one format, bound to that format's kernels and batch
// crossover. The background conversion worker builds a new engine off
// to the side and publishes it with a single atomic store; calls already in
// flight keep the engine they loaded, so a swap can never tear a running
// SpMV.
type engine[T matrix.Float] struct {
	mat    *kernels.Mat[T]
	kernel *kernels.Kernel[T]

	// batch is the format's tiled SpMM kernel (nil when none is registered)
	// and crossover the width at which it starts beating the
	// loop-over-vectors path; see MulVecBatch. crossover is the one thing
	// about an engine that changes after it is published: it starts at 0
	// unless a cache entry supplied a measured width, the first batched call
	// claims the probe (crossoverClaimed) and stores what it measured, once.
	batch     *kernels.BatchKernel[T]
	crossover atomic.Int32

	// scratch is the loop path's reusable gather/scatter buffer pair,
	// detached (Swap) while in use so concurrent calls never share it. It
	// lives on the engine, not the operator: an in-flight MulVecBatch parks
	// its scratch back on the engine it ran on, so an operator swap can
	// neither hand one format's buffers to another nor strand a detached
	// pair on a still-running call.
	scratch atomic.Pointer[batchScratch[T]]
}

// Operator is a tuned SpMV: the matrix materialised in its chosen format
// bound to its chosen kernel and the tuner's persistent worker pool. It is
// what SMAT_xCSR_SpMV hands back.
//
// The execution state lives behind one atomic engine pointer so a background
// conversion (see TuneOptions.Iterations) can swap the serving format
// mid-stream: every call loads the engine once and runs it to completion,
// concurrent with but never torn by a swap.
type Operator[T matrix.Float] struct {
	eng  atomic.Pointer[engine[T]]
	t    *Tuner[T]
	pool *kernels.Pool[T]
	nnz  int

	// What the crossover probe needs from the tune that built the operator:
	// the tune's CSR-SpMV seconds to budget from (0 unless it measured them:
	// see Decision.CSRSpMVSec), and the decision-cache entry the measured
	// width is written back to, named by its key and the parameters it held
	// when the operator was tuned — cache is nil for an operator that
	// bypassed the cache (a format hint, a tuner without one).
	csrSpMVSec float64
	cache      *Cache
	key        features.Key
	params     kernels.Params

	// convState tracks the background-conversion lifecycle (ConversionState
	// values); convDone is closed by the worker once the swap — or its
	// failure — is final. convDone is nil for operators born in their final
	// format.
	convState atomic.Int32
	convDone  chan struct{}
}

// MulVec computes y = A·x on the steady-state execution path: the work
// partition comes from the matrix's cached plan and parallel chunks run on
// the tuner's persistent worker pool, so repeated calls allocate nothing.
//
// x and y must not share memory: every kernel clears y and then accumulates
// reads of x, so an aliased pair would silently corrupt the product. MulVec
// panics when the slices overlap (the error-returning entry point is
// Tuner.CSRSpMV in the root package).
//
//smat:hotpath
func (o *Operator[T]) MulVec(x, y []T) {
	checkOverlap(x, y)
	e := o.eng.Load()
	e.kernel.RunPooled(e.mat, x, y, o.pool)
}

// RunChunks runs fn over the chunks of bounds on the tuner's worker pool —
// the workers MulVec dispatches to — or, when the pool is busy with another
// caller or closed, on the caller in chunk order. With Threads it implements
// solve.Pooled: an iterative solver runs its vector phases here, between two
// MulVec calls, so the workers never idle long enough to park.
//
//smat:hotpath
func (o *Operator[T]) RunChunks(bounds []int, fn func(chunk, lo, hi int)) {
	o.pool.RunChunksInline(bounds, fn)
}

// Threads returns the worker pool's thread count: the most chunks RunChunks
// runs concurrently.
func (o *Operator[T]) Threads() int { return o.pool.Threads() }

// NeverBatch is the batch crossover recorded when the tiled SpMM kernel lost
// to the loop-over-vectors path at every probed width: no realistic k reaches
// it, so MulVecBatch always loops.
const NeverBatch = 1 << 30

// defaultBatchCrossover serves a batched call that arrives while another
// caller's probe of the engine is in flight: tile from width 4 — the
// narrowest register tile, from which no column is left to the scalar loop.
const defaultBatchCrossover = 4

// crossoverClaimed is the engine.crossover value between a caller's claim of
// the probe and its publication of the measured width. Like 0 it is below
// every real crossover (2 is the narrowest batch).
const crossoverClaimed = -1

// MulVecBatch computes Y = A·X for k right-hand sides held interleaved:
// column c of X occupies xb[c*k : (c+1)*k] (one value per RHS), row r of Y
// likewise yb[r*k : (r+1)*k], so len(xb) = Cols·k and len(yb) = Rows·k.
// Batches of one run the tuned single-vector kernel directly; larger batches
// take the tiled SpMM kernel when k clears the measured crossover and the
// loop-over-vectors path otherwise. The crossover is measured here, not at
// tune time: the first call with k ≥ 2 on an engine that inherited none from
// the decision cache probes it (probeCrossover) before computing its product.
// From the second call on this is the steady-state path, like MulVec:
// repeated calls allocate nothing. k = 0 is a no-op; a negative k, mis-sized
// buffers, or xb/yb sharing memory panic (the error-returning entry point is
// Tuner.CSRSpMVBatch in the root package).
//
//smat:hotpath
func (o *Operator[T]) MulVecBatch(xb, yb []T, k int) {
	if k < 0 {
		negativeBatchWidth(k)
	}
	if k == 0 {
		return
	}
	e := o.eng.Load()
	rows, cols := e.mat.Dims()
	if len(xb) != cols*k || len(yb) != rows*k {
		batchShapeMismatch(rows, cols, len(xb), len(yb), k)
	}
	checkOverlap(xb, yb)
	if k == 1 {
		// A width-1 interleaved batch is a plain vector: the tuned kernel
		// computes it bit-for-bit, with no pack/unpack detour.
		e.kernel.RunPooled(e.mat, xb, yb, o.pool)
		return
	}
	if e.batch != nil {
		crossover := int(e.crossover.Load())
		if crossover < 2 {
			crossover = o.probeCrossover(e, xb, yb, k)
		}
		if k >= crossover {
			e.batch.RunPooled(e.mat, xb, yb, k, o.pool)
			return
		}
	}
	o.loopVectors(e, xb, yb, k)
}

// batchProbeWidths are the batch widths the crossover probe times, ordered:
// the first width where the tiled kernel matches k independent single-vector
// runs becomes the engine's crossover. Width 3 is probed for itself: the
// tiled kernel takes it as one three-column lane, and a k = 3 call routed by
// the width-2 timing alone follows a near-tie (the tile and the loop cost
// about the same at two vectors) instead of a measurement of its own width.
var batchProbeWidths = [...]int{2, 3, 4, 8}

// probeCrossover is MulVecBatch's first-use slow path, kept out of line so
// the hot body pays one atomic load for it. One caller per engine claims the
// probe, measures, and publishes the width — on the engine, then on the
// decision-cache entry the operator was tuned under, so later hits bind it
// and never probe. A caller that finds the probe claimed does not wait: it
// takes the default crossover for this one call.
//
//go:noinline
//smat:atomic-claim
func (o *Operator[T]) probeCrossover(e *engine[T], xb, yb []T, k int) int {
	if !e.crossover.CompareAndSwap(0, crossoverClaimed) {
		return defaultBatchCrossover
	}
	start := time.Now()
	crossover := o.measureCrossover(e, xb, yb, k)
	e.crossover.Store(int32(crossover))
	if o.cache != nil {
		o.cache.SetBatchCrossover(o.key, e.kernel.Format, o.params, crossover)
	}
	o.t.batchProbes.Add(1)
	o.t.batchProbeNanos.Add(int64(time.Since(start)))
	return crossover
}

// measureCrossover times the loop-over-vectors path against the tiled SpMM
// kernel at each probe width and returns the first width where the tiled
// pass costs no more than k trips through the loop (NeverBatch when the loop
// wins everywhere). An empty matrix has nothing to measure; both paths are
// trivially cheap there, so the tiled kernel (one pass instead of k) is
// preferred at every width.
//
// The loop is timed as MulVecBatch runs it — per vector a gather, the tuned
// single-vector kernel, a scatter — at width 2: the kernel alone undercounts
// it by the two strided passes, by more the faster the bound kernel is.
//
// The probe owns no buffers where it can help it. A caller at least as wide
// as the widest probe lends its own: any k′-prefix of a width-k interleaved
// buffer is a valid width-k′ timing input, xb is only read, and yb is
// overwritten by the caller's product afterwards. A narrower caller gets a
// private all-ones workspace that is garbage once the probe returns. Each
// timing is budgeted in multiples of the tune's CSR-SpMV time, or — the tune
// having measured none — of one run of the bound kernel.
func (o *Operator[T]) measureCrossover(e *engine[T], xb, yb []T, k int) int {
	if o.nnz == 0 {
		return batchProbeWidths[0]
	}
	rows, cols := e.mat.Dims()
	if widest := batchProbeWidths[len(batchProbeWidths)-1]; k < widest {
		xb, yb = make([]T, cols*widest), make([]T, rows*widest)
		for i := range xb {
			xb[i] = 1
		}
	}
	unit := o.csrSpMVSec
	if unit <= 0 {
		start := time.Now()
		e.kernel.RunPooled(e.mat, xb[:cols], yb[:rows], o.pool)
		unit = time.Since(start).Seconds()
	}
	budget := o.t.probeBudget(unit)

	perVector := MeasureSecPerOp(func() { o.loopVectors(e, xb[:cols*2], yb[:rows*2], 2) }, budget) / 2
	return firstWinningWidth(perVector, func(w int) float64 {
		return MeasureSecPerOp(func() { e.batch.RunPooled(e.mat, xb[:cols*w], yb[:rows*w], w, o.pool) }, budget)
	})
}

// firstWinningWidth is the crossover rule: the narrowest probe width whose
// tiled pass (tileSec(w), timed only until one wins) costs no more than w
// trips through the loop at perVector seconds each; NeverBatch when none does.
func firstWinningWidth(perVector float64, tileSec func(w int) float64) int {
	for _, w := range batchProbeWidths {
		if tileSec(w) <= perVector*float64(w) {
			return w
		}
	}
	return NeverBatch
}

// BatchCrossover returns the serving engine's batch crossover as it stands:
// the width at or above which MulVecBatch takes the tiled SpMM kernel,
// NeverBatch when the loop won at every probed width, and 0 while no batched
// call has measured it yet (or the format has no batched kernel).
func (o *Operator[T]) BatchCrossover() int {
	e := o.eng.Load()
	if c := int(e.crossover.Load()); e.batch != nil && c >= 2 {
		return c
	}
	return 0
}

// HoldBatchProbe claims the serving engine's crossover probe without running
// it, exactly as a concurrent first caller would, and returns the function
// that gives the claim back. While it is held every MulVecBatch on that
// engine takes the default crossover. It exists for tests and the
// differential oracle, which need the mid-probe state pinned rather than
// raced for; ok is false when the engine is past its claim already.
func (o *Operator[T]) HoldBatchProbe() (release func(), ok bool) {
	e := o.eng.Load()
	if e.batch == nil || !e.crossover.CompareAndSwap(0, crossoverClaimed) {
		return nil, false
	}
	return func() { e.crossover.Store(0) }, true
}

// batchScratch is the loop-over-vectors gather/scatter buffer pair. It is
// cached on the serving engine after the first loop-path call:
// AllocsPerRun-style steady-state accounting sees zero allocations.
type batchScratch[T matrix.Float] struct {
	x, y []T
}

// loopVectors is MulVecBatch's small-k path: gather each RHS column from the
// interleaved buffer, run the tuned single-vector kernel, scatter the result
// back. The scratch pair is detached from the engine while in use, so a
// concurrent call allocates its own instead of corrupting the product — and
// it is parked back on the engine it was taken from, so an operator swap
// mid-call neither races these buffers nor strands them: a superseded
// engine's scratch is garbage-collected with the engine itself.
func (o *Operator[T]) loopVectors(e *engine[T], xb, yb []T, k int) {
	rows, cols := e.mat.Dims()
	s := e.scratch.Swap(nil)
	if s == nil {
		s = &batchScratch[T]{x: make([]T, cols), y: make([]T, rows)}
	}
	x, y := s.x, s.y
	for j := 0; j < k; j++ {
		for c := 0; c < cols; c++ {
			x[c] = xb[c*k+j]
		}
		e.kernel.RunPooled(e.mat, x, y, o.pool)
		for r := 0; r < rows; r++ {
			yb[r*k+j] = y[r]
		}
	}
	e.scratch.Store(s)
}

// checkOverlap rejects an x/y pair sharing memory. The address comparison
// inlines into the caller's hot path; the panic stays out of line in
// aliasedVectors, so the fast path carries one never-taken forward branch
// and no interface boxing.
//
//smat:hotpath
func checkOverlap[T matrix.Float](x, y []T) {
	if matrix.SlicesOverlap(x, y) {
		aliasedVectors()
	}
}

// aliasedVectors reports an overlapping x/y pair. Outlined and kept out of
// line so the MulVec hot path stays free of the panic's interface boxing.
//
//go:noinline
func aliasedVectors() {
	panic("autotune: MulVec called with x and y sharing memory; SpMV reads x while writing y")
}

//go:noinline
func negativeBatchWidth(k int) {
	panic(fmt.Sprintf("autotune: MulVecBatch called with negative batch width %d", k))
}

//go:noinline
func batchShapeMismatch(rows, cols, lx, ly, k int) {
	panic(fmt.Sprintf("autotune: MulVecBatch on %dx%d matrix with k=%d needs |xb|=%d |yb|=%d, got %d and %d",
		rows, cols, k, cols*k, rows*k, lx, ly))
}

// Format returns the storage format the operator currently serves. While a
// background conversion is pending this is the tuned-CSR incumbent's format;
// it becomes Decision.Chosen once the swap lands.
func (o *Operator[T]) Format() matrix.Format { return o.eng.Load().mat.Format }

// KernelName returns the implementation the operator currently serves.
func (o *Operator[T]) KernelName() string { return o.eng.Load().kernel.Name }

// NNZ returns the operator's nonzero count.
func (o *Operator[T]) NNZ() int { return o.nnz }

// Dims returns the operator's dimensions.
func (o *Operator[T]) Dims() (rows, cols int) { return o.eng.Load().mat.Dims() }

// Tuner is the runtime component: it holds a trained model and produces
// tuned operators from CSR inputs. All methods are safe for concurrent use:
// the decision cache is sharded and singleflight-deduplicated, the probe
// counters are atomics, and the rest of the tuner state is immutable after
// construction.
type Tuner[T matrix.Float] struct {
	model      *Model
	lib        *kernels.Library[T]
	threads    int
	pool       *kernels.Pool[T]
	measure    MeasureOptions
	cache      *Cache
	threshold  float64
	noFallback bool
	// bound is the kernel every bind site uses for a format: the model's
	// pick resolved for this tuner's thread count (see resolveKernels).
	bound map[matrix.Format]*kernels.Kernel[T]

	// The lazy crossover probes this tuner's operators have run, and the
	// nanoseconds spent in them (Stats).
	batchProbes     atomic.Uint64
	batchProbeNanos atomic.Int64

	// Tunes that returned without having read ColIdx (Stats).
	columnPassesSkipped atomic.Uint64
}

// Config configures a runtime tuner beyond the model itself.
type Config struct {
	// Threads is the kernel thread fan-out; ≤ 0 uses the model's trained
	// thread count, and either is capped to GOMAXPROCS. The tuner binds the
	// model's kernel picks for this count (see resolveKernels).
	Threads int
	// CacheSize bounds the feature-keyed decision cache: 0 selects
	// DefaultCacheSize, a negative value disables caching entirely.
	CacheSize int
	// Cache, when non-nil, is used instead of building a new cache, so
	// several tuners (e.g. one per element type) can share decisions.
	Cache *Cache
	// DisableFallback turns off the execute-and-measure path: when the
	// model is not confident, the tuner picks the highest-confidence
	// matching rule group (or CSR) instead of measuring. Such decisions are
	// cached with their low confidence so a measuring tuner sharing the
	// cache can refresh them.
	DisableFallback bool
	// ConfidenceThreshold overrides the model's trained threshold when > 0.
	ConfidenceThreshold float64
}

// New builds a runtime tuner from a trained model and a Config.
func New[T matrix.Float](model *Model, cfg Config) *Tuner[T] {
	threads := cfg.Threads
	if threads <= 0 {
		threads = model.Threads
	}
	if max := runtime.GOMAXPROCS(0); threads <= 0 || threads > max {
		threads = max
	}
	cache := cfg.Cache
	if cache == nil && cfg.CacheSize >= 0 {
		cache = NewCache(cfg.CacheSize)
	}
	threshold := cfg.ConfidenceThreshold
	if threshold <= 0 {
		threshold = model.ConfidenceThreshold
	}
	lib := kernels.NewLibrary[T]()
	return &Tuner[T]{
		model:   model,
		lib:     lib,
		threads: threads,
		bound:   resolveKernels(model, lib, threads),
		// The persistent worker pool resolves the effective thread count
		// once, here; every operator the tuner produces shares it.
		pool: kernels.NewPool[T](threads),
		// Fallback measurements favour speed over precision: the paper keeps
		// the whole fallback within ~16 CSR-SpMV executions.
		measure:    MeasureOptions{MinTime: 200 * time.Microsecond, Trials: 1},
		cache:      cache,
		threshold:  threshold,
		noFallback: cfg.DisableFallback,
	}
}

// Threads returns the tuner's thread configuration.
func (t *Tuner[T]) Threads() int { return t.threads }

// Pool returns the tuner's persistent worker pool (the steady-state
// execution engine shared by every operator the tuner produces).
func (t *Tuner[T]) Pool() *kernels.Pool[T] { return t.pool }

// Close stops the worker pool. Operators the tuner produced remain usable —
// their parallel kernels fall back to per-call goroutine fan-out — and an
// abandoned tuner sheds its workers on garbage collection even without
// Close.
func (t *Tuner[T]) Close() { t.pool.Close() }

// Model returns the underlying trained model.
func (t *Tuner[T]) Model() *Model { return t.model }

// Cache returns the tuner's decision cache (nil when caching is disabled).
// Pass it to another tuner's Config.Cache to share decisions.
func (t *Tuner[T]) Cache() *Cache { return t.cache }

// Stats is a point-in-time snapshot of a tuner's live counters: the decision
// cache's (promoted, so st.Hits reads as before), the worker pool's, and the
// lazy batch-crossover probes'.
type Stats struct {
	CacheStats
	// Pool counts what the operators' parallel dispatches did: ran on the
	// persistent workers (waking them or not), overflowed to per-call
	// goroutines, or stayed serial under the plan's work cutoff.
	Pool kernels.PoolStats
	// BatchProbes counts the crossover probes the tuner's operators ran on a
	// first batched call (at most one per engine; none for an engine that
	// inherited a measured width from the cache), BatchProbeSec the seconds
	// those calls spent probing before computing their own product.
	BatchProbes   uint64
	BatchProbeSec float64
	// ColumnPassesSkipped counts the tunes whose decision reports
	// ColumnPassSkipped: working from a record of the row pass alone, scanned
	// or recalled, they never read the column indices.
	ColumnPassesSkipped uint64
}

// Stats snapshots the tuner's counters; the cache part is zero when caching
// is disabled.
func (t *Tuner[T]) Stats() Stats {
	st := Stats{
		Pool:                t.pool.Stats(),
		BatchProbes:         t.batchProbes.Load(),
		BatchProbeSec:       time.Duration(t.batchProbeNanos.Load()).Seconds(),
		ColumnPassesSkipped: t.columnPassesSkipped.Load(),
	}
	if t.cache != nil {
		st.CacheStats = t.cache.Stats()
	}
	return st
}

// resolveKernel is the only place a kernel name becomes a kernel: the
// library's kernel of that name when it is one of format f's, else (no name,
// an unknown one, another format's) f's basic kernel.
func resolveKernel[T matrix.Float](lib *kernels.Library[T], name string, f matrix.Format) *kernels.Kernel[T] {
	if k := lib.Lookup(name); k != nil && k.Format == f {
		return k
	}
	return lib.Basic(f)
}

// resolveKernels builds a tuner's per-format kernel table: the model's pick
// and, at more than one thread, its thread-aware form (kernels.Library.
// Threaded). The model's scoreboard ran at model.Threads; a tuner at another
// thread count keeps the searched loop body and takes the partitioning its
// own configuration needs.
func resolveKernels[T matrix.Float](model *Model, lib *kernels.Library[T], threads int) map[matrix.Format]*kernels.Kernel[T] {
	bound := make(map[matrix.Format]*kernels.Kernel[T], len(matrix.Formats))
	for _, f := range matrix.Formats {
		k := resolveKernel(lib, model.Kernels[f.String()], f)
		if threads > 1 {
			k = lib.Threaded(k)
		}
		bound[f] = k
	}
	return bound
}

// kernelFor returns the kernel this tuner binds for a format, nil for a
// format the tuner does not serve.
func (t *Tuner[T]) kernelFor(f matrix.Format) *kernels.Kernel[T] { return t.bound[f] }

// paramsFor resolves the model's searched parameters for a format: the zero
// Params (fixed menu) for v1 models and for formats the search left at
// their defaults.
func (t *Tuner[T]) paramsFor(f matrix.Format) kernels.Params {
	if t.model.Params == nil {
		return kernels.Params{}
	}
	return t.model.Params[f.String()]
}

// resolvedParams is the full parameter point behind an engine: the model's
// format-level conversion knobs and the bound kernel instance's unroll depth.
func (t *Tuner[T]) resolvedParams(e *engine[T]) kernels.Params {
	p := t.paramsFor(e.kernel.Format)
	if u := e.kernel.Params.Unroll; u != 0 {
		p.Unroll = u
	}
	return p
}

// Tune runs the paper's Figure 7 runtime procedure on a CSR matrix: feature
// extraction, then — unless the feature-keyed decision cache already holds
// the answer — ordered rule-group evaluation against the confidence
// threshold and the execute-and-measure fallback when the model is not
// confident. Concurrent calls for matrices with the same feature
// fingerprint are deduplicated: one call tunes, the rest block on its
// decision. It returns the tuned operator and the full decision record.
//
// Tune is the asymptotic entry point: conversion cost is treated as fully
// amortised. TuneOpts makes it an input to the decision.
func (t *Tuner[T]) Tune(m *matrix.CSR[T]) (*Operator[T], *Decision, error) {
	return t.TuneOpts(m, TuneOptions{})
}

// TuneOpts is Tune with per-call options: the decision becomes "best format
// given opts.Iterations remaining SpMVs", with tuned CSR as the
// zero-conversion-cost incumbent, and opts.FormatHint can bypass the
// decision entirely. See TuneOptions for the exact semantics of each field,
// and stages.go for the stages each path below is made of.
func (t *Tuner[T]) TuneOpts(m *matrix.CSR[T], opts TuneOptions) (*Operator[T], *Decision, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	tn := t.extract(m, opts)
	if err := tn.run(); err != nil {
		return nil, tn.d, err
	}
	if tn.d.ColumnPassSkipped {
		t.columnPassesSkipped.Add(1)
	}
	return tn.op, tn.d, nil
}

// run takes an extracted call down its path to a served operator (tn.op) and
// its decision (tn.d). A call that recalled its structure and was told by a
// conversion that the record is another pattern's (two patterns, one
// signature) has decided nothing yet — the features it keyed on were the other
// pattern's too: it scans, which replaces the record, and starts over on a
// fresh Decision. A collision costs that one scan and never a wrong product.
func (tn *tuning[T]) run() error {
	err := tn.decide()
	if tn.base.StructureHit && foreign(err) {
		tn.read(false)
		err = tn.decide()
	}
	return err
}

// decide is the path proper: format hint, no cache, cache leader or cache hit.
func (tn *tuning[T]) decide() error {
	t, opts := tn.t, tn.opts
	if opts.HasFormatHint {
		return tn.finish(tn.hinted())
	}
	if t.cache == nil {
		return tn.finish(tn.lead())
	}

	// Whichever way the operator comes out of the cache path, the crossover
	// its first batched call measures is published to the entry it led or hit.
	tn.op.cache, tn.op.key = t.cache, tn.base.Features.Key()
	var led *choice[T]
	entry, fromCache, err := t.cache.DoValidated(tn.op.key, t.refreshBelow(), validForHint(opts), func() (CacheEntry, error) {
		c, err := tn.lead()
		if err != nil {
			return CacheEntry{}, err
		}
		led = c
		return tn.entry(c), nil
	})
	tn.op.params = entry.Params
	if err != nil || !fromCache {
		return tn.finish(led, err)
	}
	// The decision came from the cache (or from a concurrent leader tuning
	// an identical-fingerprint matrix): apply it to this matrix.
	err = tn.serve(tn.cached(entry))
	if err == nil || foreign(err) {
		return err
	}
	// The cached format does not fit this matrix — a fingerprint collision
	// with a structurally different matrix. Decide locally, on a fresh
	// record, without disturbing the cached entry.
	return tn.finish(tn.lead())
}

// finish serves a leader's or a hint's choice.
func (tn *tuning[T]) finish(c *choice[T], err error) error {
	if err != nil {
		return err
	}
	return tn.serve(c)
}

// refreshBelow is the confidence bar under which a cached, un-measured
// entry is re-tuned. A measuring tuner uses its confidence threshold (it
// can replace a weak prediction with ground truth); a no-fallback tuner
// never refreshes, since re-deciding could do no better.
func (t *Tuner[T]) refreshBelow() float64 {
	if t.noFallback {
		return 0
	}
	return t.threshold
}

// groupConfidence walks the rules of class f, in ruleset order, over the box
// [lo, hi] of feature vectors: True with the confidence of the class's first
// matching rule when it matches everywhere in the box and every rule of the
// class ahead of it nowhere, False when none matches anywhere, Open otherwise.
// On a point box it is the first match or none.
func (t *Tuner[T]) groupConfidence(lo, hi []float64, f matrix.Format) (float64, mining.Tri) {
	for i := range t.model.Ruleset.Rules {
		r := &t.model.Ruleset.Rules[i]
		if r.Class != int(f) {
			continue
		}
		switch r.Over(lo, hi) {
		case mining.True:
			return r.Confidence, mining.True
		case mining.Open:
			return 0, mining.Open
		}
	}
	return 0, mining.False
}

// feasible predicts from the already-extracted features whether converting
// to f stays within the given fill limit, without touching the matrix.
func feasible(f matrix.Format, ft *features.Features, maxFill float64) bool {
	switch f {
	case matrix.FormatDIA:
		return ft.ERDIA > 0 && 1/ft.ERDIA <= maxFill
	case matrix.FormatELL:
		return ft.ERELL > 0 && 1/ft.ERELL <= maxFill
	default:
		return true
	}
}
