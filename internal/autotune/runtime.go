package autotune

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// Decision records everything about one runtime tuning decision, feeding the
// paper's Table 3 (prediction, fallback, overhead in CSR-SpMV units). Exactly
// one of three paths produced it: a confident model prediction (PredictedOK,
// no CacheHit), the execute-and-measure fallback (UsedFallback), or the
// decision cache (CacheHit). The provenance, choice and payoff fields are
// written once, by the record stage, onto a record that starts fresh for
// every attempt: they describe this call's own stages and nothing else.
type Decision struct {
	// Features is what extract learned of the matrix (features.Estimated):
	// the row parameters exact, Ndiags, NTdiagsRatio and ERDIA estimated from
	// a bounded sample of the entries.
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
	// did not read RowPtr or ColIdx before converting. It is independent of
	// CacheHit, which is about the decision.
	StructureHit bool

	// Chosen is the format the returned operator serves; Kernel the
	// implementation name.
	Chosen matrix.Format
	Kernel string

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

	// ConvertAt is set on a deferred tune (Tuner.TuneLazy): the product on the
	// handle before which it converts to Asymptotic — the first product count
	// whose tuned-CSR time, at the handle's first call's rate, reaches the
	// predicted conversion cost, and never one of the first call's. Chosen is
	// CSR until then; the converted operator's decision keeps ConvertAt and
	// records the conversion in ConvertSec and ConvertStored. 0 on a tune that
	// did not defer. ConvertErr is why the deferred conversion failed, if it
	// did: the handle then serves tuned CSR for good.
	ConvertAt  int
	ConvertErr error

	// ChosenSpMVSec and IncumbentSec are the per-SpMV seconds of the chosen
	// format and of the tuned-CSR incumbent — the two rates of the payoff
	// model behind BreakEvenIters. ConvertStored is the number of element
	// slots the conversion wrote (the work term conversion time scales with).
	ChosenSpMVSec float64
	IncumbentSec  float64
	ConvertStored int

	// Timing breakdown (seconds); each field is written by exactly one stage
	// of the pipeline (stages.go). FeatureSec: extract — the row pass and the
	// diagonal sample, or the structure index's lookup, and the features
	// derived from them. FallbackSec: the execute-and-measure
	// selector, its contenders' conversions and runs included.
	// AmortProbeSec: the leader's probe — the per-SpMV rate probes behind
	// BreakEvenIters and their baseline run, only under an iteration hint.
	// ConvertSec: record — the conversion this call performed for the chosen
	// format — or Deferred.Convert, for the conversion a deferred tune's
	// handle made at call ConvertAt. Stages that did not run leave zero.
	//
	// CSRSpMVSec is one CSR SpMV on this matrix, the unit of Overhead. On the
	// execute-and-measure path it is the tuned-CSR incumbent's first timed run
	// (pooled, cold: the first kernel the call runs); under an iteration hint
	// on a predicted leader it is one run of the basic serial CSR kernel, the
	// yardstick of the rate probes' budget. It is 0 on every other path: a
	// predicted, format-hinted or cache-hit tune runs no kernel.
	FeatureSec    float64
	ConvertSec    float64
	FallbackSec   float64
	AmortProbeSec float64
	CSRSpMVSec    float64

	// BatchProbeSec is 0 on every decision.
	//
	// Deprecated: nothing measures a batch crossover (MulVecBatch runs the
	// tiled kernel at every k ≥ 2); the field stays for benchmark/, which
	// reads it.
	BatchProbeSec float64

	// BatchCrossover is the narrowest batch width MulVecBatch runs the
	// register-tiled SpMM kernel at: 2 on every decision TuneOpts returns.
	//
	// Deprecated: nothing is measured; every batch of two or more vectors
	// runs the tiled kernel. The field stays for benchmark/, which reads it.
	BatchCrossover int
}

// TuneSec returns the seconds the tuning call spent in its stages: the
// numerator of the paper's Table 3 overhead.
func (d *Decision) TuneSec() float64 {
	return d.FeatureSec + d.ConvertSec + d.FallbackSec + d.AmortProbeSec
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

// String renders the decision on one line: the path that produced it and its
// confidence, whether the tune read the structure (StructureHit), the chosen
// format and kernel, then — each only when the
// tune measured it — the break-even point, a deferred conversion's call, and
// the overhead.
func (d Decision) String() string {
	var b strings.Builder
	switch {
	case d.CacheHit:
		fmt.Fprintf(&b, "cache hit (confidence %.2f)", d.Confidence)
	case d.UsedFallback:
		b.WriteString("execute-and-measure fallback")
	default:
		fmt.Fprintf(&b, "predicted (confidence %.2f)", d.Confidence)
	}
	if d.StructureHit {
		b.WriteString(", structure hit")
	}
	fmt.Fprintf(&b, ": %s via %s", d.Chosen, d.Kernel)
	switch {
	case d.BreakEvenIters == NeverAmortize:
		fmt.Fprintf(&b, ", %s never breaks even", d.Asymptotic)
	case d.BreakEvenIters > 0:
		fmt.Fprintf(&b, ", %s breaks even at %d SpMVs", d.Asymptotic, d.BreakEvenIters)
	}
	if d.Amortized {
		fmt.Fprintf(&b, " (hint %d: serving tuned CSR)", d.IterationHint)
	}
	switch {
	case d.ConvertErr != nil:
		fmt.Fprintf(&b, ", conversion to %s at call %d failed (%v): serving tuned CSR", d.Asymptotic, d.ConvertAt, d.ConvertErr)
	case d.ConvertAt > 0 && d.Chosen != d.Asymptotic:
		fmt.Fprintf(&b, ", serving tuned CSR until call %d, then %s", d.ConvertAt, d.Asymptotic)
	case d.ConvertAt > 0:
		fmt.Fprintf(&b, ", converted at call %d", d.ConvertAt)
	}
	if o := d.Overhead(); o > 0 {
		fmt.Fprintf(&b, ", overhead %.1fx CSR-SpMV", o)
	}
	return b.String()
}

// engine is the immutable execution state of an Operator: the matrix
// materialised in one format, bound to that format's single-vector and tiled
// SpMM kernels.
type engine[T matrix.Float] struct {
	mat    *kernels.Mat[T]
	kernel *kernels.Kernel[T]
	batch  *kernels.BatchKernel[T]
}

// Operator is a tuned SpMV: the matrix materialised in its chosen format
// bound to its chosen kernel and the tuner's persistent worker pool. It is
// what SMAT_xCSR_SpMV hands back. Its engine and its decision are set once,
// before TuneOpts returns it, and never change — but for a deferred tune's
// Decision.ConvertAt, which Deferred.Schedule sets before the handle shares
// the operator. A deferred conversion returns a new operator.
type Operator[T matrix.Float] struct {
	eng  *engine[T]
	dec  *Decision
	pool *kernels.Pool[T]
	nnz  int
}

// Decision returns the record of the tune that produced the operator.
func (o *Operator[T]) Decision() Decision { return *o.dec }

// AwaitConversion returns at once.
//
// Deprecated: an operator never changes format — a deferred conversion
// (Deferred.Convert) returns a new operator — so there is nothing to await;
// the method stays for benchmark/, which calls it.
func (o *Operator[T]) AwaitConversion() {}

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
	e := o.eng
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
	o.pool.RunChunks(bounds, fn)
}

// Threads returns the worker pool's thread count: the most chunks RunChunks
// runs concurrently.
func (o *Operator[T]) Threads() int { return o.pool.Threads() }

// MulVecBatch computes Y = A·X for k right-hand sides held interleaved:
// column c of X occupies xb[c*k : (c+1)*k] (one value per RHS), row r of Y
// likewise yb[r*k : (r+1)*k], so len(xb) = Cols·k and len(yb) = Rows·k.
// Batches of one run the tuned single-vector kernel directly; larger batches
// run the format's tiled SpMM kernel, one pass over the matrix for all k
// columns. This is the steady-state path, like MulVec: from the second call
// on it allocates nothing. k = 0 is a no-op; a negative k, mis-sized
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
	e := o.eng
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
	e.batch.RunPooled(e.mat, xb, yb, k, o.pool)
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

// Format returns the storage format the operator serves: Decision.Chosen.
func (o *Operator[T]) Format() matrix.Format { return o.eng.mat.Format }

// KernelName returns the implementation the operator serves.
func (o *Operator[T]) KernelName() string { return o.eng.kernel.Name }

// NNZ returns the operator's nonzero count.
func (o *Operator[T]) NNZ() int { return o.nnz }

// Dims returns the operator's dimensions.
func (o *Operator[T]) Dims() (rows, cols int) { return o.eng.mat.Dims() }

// Tuner is the runtime component: it holds a trained model and produces
// tuned operators from CSR inputs. All methods are safe for concurrent use:
// the decision cache is sharded and singleflight-deduplicated, the
// counters are atomics, and the rest of the tuner state is immutable after
// construction.
type Tuner[T matrix.Float] struct {
	model *Model
	// class is the model class for this tuner's thread count (Model.Class):
	// its ruleset decides, its kernels are bound, its parameters convert.
	class   *ModelClass
	lib     *kernels.Library[T]
	threads int
	pool    *kernels.Pool[T]
	measure MeasureOptions
	cache   *Cache
	// bound is the kernel every bind site uses for a format: the class's
	// pick (see resolveKernel).
	bound map[matrix.Format]*kernels.Kernel[T]

	// DIA conversions that tallied their diagonals, execute-and-measure
	// selections, those whose measured winner was the ruleset's best guess
	// below the threshold, deferred tunes and their completed conversions
	// (Stats).
	tallies, fallbacks, fallbackAgreed, deferred, swaps atomic.Uint64
}

// Config configures a runtime tuner beyond the model itself.
type Config struct {
	// Threads is the kernel thread fan-out, capped to GOMAXPROCS; ≤ 0 uses
	// GOMAXPROCS. The tuner runs the model's class for this count
	// (Model.Class).
	Threads int
	// CacheSize bounds the feature-keyed decision cache: 0 selects
	// DefaultCacheSize, a negative value disables caching entirely.
	CacheSize int
}

// New builds a runtime tuner from a trained model and a Config.
func New[T matrix.Float](model *Model, cfg Config) *Tuner[T] {
	threads := cfg.Threads
	if max := runtime.GOMAXPROCS(0); threads <= 0 || threads > max {
		threads = max
	}
	class := model.Class(threads)
	var cache *Cache
	if cfg.CacheSize >= 0 {
		cache = NewCache(cfg.CacheSize)
	}
	lib := kernels.NewLibrary[T]()
	return &Tuner[T]{
		model:   model,
		class:   class,
		lib:     lib,
		threads: threads,
		bound:   resolveKernels(class, lib),
		// The persistent worker pool resolves the effective thread count
		// once, here; every operator the tuner produces shares it.
		pool: kernels.NewPool[T](threads),
		// Fallback measurements favour speed over precision: the paper keeps
		// the whole fallback within ~16 CSR-SpMV executions.
		measure: MeasureOptions{MinTime: 200 * time.Microsecond, Trials: 1},
		cache:   cache,
	}
}

// Threads returns the tuner's thread configuration.
func (t *Tuner[T]) Threads() int { return t.threads }

// Pool returns the tuner's persistent worker pool (the steady-state
// execution engine shared by every operator the tuner produces).
func (t *Tuner[T]) Pool() *kernels.Pool[T] { return t.pool }

// Close stops the worker pool. Operators the tuner produced remain usable —
// their parallel kernels run their chunks on the calling goroutine — and an
// abandoned tuner sheds its workers on garbage collection even without
// Close.
func (t *Tuner[T]) Close() { t.pool.Close() }

// Model returns the underlying trained model.
func (t *Tuner[T]) Model() *Model { return t.model }

// Stats is a point-in-time snapshot of a tuner's live counters: the decision
// cache's (promoted, so st.Hits reads as before), the worker pool's, and the
// tuner's own.
type Stats struct {
	CacheStats
	// Pool counts what the operators' parallel dispatches did: ran on the
	// persistent workers (waking them or not), found the pool busy or closed
	// and ran on the caller (overflow), or stayed serial under the plan's
	// work cutoff.
	Pool kernels.PoolStats
	// DiagonalTallies counts the DIA conversions that tallied their
	// diagonals — the one pass over the column indices a tune makes outside
	// a conversion's own placing of the entries. A signed pattern's record
	// keeps the tally, so its later DIA conversions do not count.
	DiagonalTallies uint64
	// Fallbacks counts the execute-and-measure selections; FallbackAgreed
	// those whose measured winner was the format the ruleset's
	// highest-confidence matching, feasible group named below the threshold
	// (bestGuess). Their ratio is how often the model's guess was right where
	// it was not sure.
	Fallbacks, FallbackAgreed uint64
	// DeferredTunes counts the tunes that served tuned CSR and deferred their
	// pick's conversion (TuneLazy); DeferredSwaps the deferred conversions
	// that completed (Deferred.Convert). A handle that never reached its
	// Decision.ConvertAt, or whose conversion failed, is the difference.
	DeferredTunes, DeferredSwaps uint64
}

// Stats snapshots the tuner's counters; the cache part is zero when caching
// is disabled.
func (t *Tuner[T]) Stats() Stats {
	st := Stats{
		Pool:            t.pool.Stats(),
		DiagonalTallies: t.tallies.Load(),
		Fallbacks:       t.fallbacks.Load(),
		FallbackAgreed:  t.fallbackAgreed.Load(),
		DeferredTunes:   t.deferred.Load(),
		DeferredSwaps:   t.swaps.Load(),
	}
	if t.cache != nil {
		st.CacheStats = t.cache.Stats()
	}
	return st
}

// defaultKernels is what a format binds when its class names no kernel for
// it: the basic loop body over its partition, whose one-thread arithmetic is
// the basic kernel's.
var defaultKernels = map[matrix.Format]string{
	matrix.FormatCSR: "csr_parallel_nnz",
	matrix.FormatCOO: "coo_parallel",
	matrix.FormatDIA: "dia_parallel",
	matrix.FormatELL: "ell_parallel",
}

// resolveKernel is the only place a kernel name becomes a kernel: the
// library's kernel of that name when it is one of format f's, else (no name,
// an unknown one, another format's) f's default kernel. LoadModel rejects a
// class that names an unknown or another format's kernel, so from a loaded
// model only an absent name takes the default.
func resolveKernel[T matrix.Float](lib *kernels.Library[T], name string, f matrix.Format) *kernels.Kernel[T] {
	if k := lib.Lookup(name); k != nil && k.Format == f {
		return k
	}
	return lib.Lookup(defaultKernels[f])
}

// resolveKernels builds a tuner's per-format kernel table from its class.
func resolveKernels[T matrix.Float](class *ModelClass, lib *kernels.Library[T]) map[matrix.Format]*kernels.Kernel[T] {
	bound := make(map[matrix.Format]*kernels.Kernel[T], len(matrix.Formats))
	for _, f := range matrix.Formats {
		bound[f] = resolveKernel(lib, class.Kernels[f.String()], f)
	}
	return bound
}

// kernelFor returns the kernel this tuner binds for a format, nil for a
// format the tuner does not serve.
func (t *Tuner[T]) kernelFor(f matrix.Format) *kernels.Kernel[T] { return t.bound[f] }

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
	tn, err := t.tune(m, opts, false)
	return tn.op, tn.d, err
}

// TuneLazy is TuneOpts for a matrix handle's first call, which may defer the
// conversion: an unhinted leader — a cache miss, or no cache — whose
// confident pick costs a conversion (not CSR, not an ELL view of the input)
// returns the tuned-CSR operator and the pick as a Deferred, and converts
// nothing. The caller times its first products on the operator, Schedules
// the Deferred and Converts it when Due. Every other call tunes as TuneOpts
// does and returns a nil Deferred: a cache hit, a measured winner, a hinted
// call.
func (t *Tuner[T]) TuneLazy(m *matrix.CSR[T], opts TuneOptions) (*Operator[T], *Deferred[T], error) {
	tn, err := t.tune(m, opts, true)
	return tn.op, tn.later, err
}

// tune is TuneOpts and TuneLazy: the call's stages, then its counters. A
// failed call returns a nil operator and Deferred and the failed attempt's
// decision, if it got that far.
func (t *Tuner[T]) tune(m *matrix.CSR[T], opts TuneOptions, lazy bool) (*tuning[T], error) {
	if err := opts.validate(); err != nil {
		return &tuning[T]{}, err
	}
	tn := t.extract(m, opts)
	tn.lazy = lazy
	if err := tn.run(); err != nil {
		tn.op, tn.later = nil, nil
		return tn, err
	}
	if tn.later != nil {
		t.deferred.Add(1)
	}
	tn.d.BatchCrossover = 2
	tn.op.dec = tn.d
	return tn, nil
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

	var led *choice[T]
	entry, fromCache, err := t.cache.DoValidated(tn.base.Features.Key(), validForHint(opts, tn.m, tn.rec.layout.MaxDeg), func() (CacheEntry, error) {
		c, err := tn.lead()
		if err != nil {
			return CacheEntry{}, err
		}
		led = c
		return tn.entry(c), nil
	})
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

// groupConfidence is the confidence of the first rule of class f, in ruleset
// order, that the feature vector matches; ok is false when none does.
func (t *Tuner[T]) groupConfidence(fv []float64, f matrix.Format) (conf float64, ok bool) {
	for i := range t.class.Ruleset.Rules {
		if r := &t.class.Ruleset.Rules[i]; r.Class == int(f) && r.Matches(fv) {
			return r.Confidence, true
		}
	}
	return 0, false
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
