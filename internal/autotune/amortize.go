// Amortization-aware tuning: conversion cost as a first-class input to the
// format decision, and background conversion with an atomic operator swap.
//
// The paper's runtime procedure picks the asymptotically best format — the
// right answer for a matrix that lives forever. A matrix that will see only
// k more SpMVs must instead win the payoff inequality
//
//	convertSec + k·chosenSec ≤ k·incumbentSec
//
// against tuned CSR, the incumbent that costs nothing to convert to (the
// input already is CSR). This file implements that comparison (BreakEven),
// the per-call options carrying k, and the background conversion worker that
// lets a long-lived matrix start serving from tuned CSR immediately while
// the amortised winner is built off the critical path.
package autotune

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"smat/internal/kernels"
	"smat/internal/matrix"
)

// TuneOptions carries the per-call tuning intent of Tuner.TuneOpts. The zero
// value reproduces Tune's asymptotic behaviour exactly.
type TuneOptions struct {
	// Iterations is the caller's estimate of how many SpMVs the operator
	// will run (k in the payoff model). 0 means no estimate: tune
	// asymptotically. Negative values are rejected. With an estimate, a
	// non-CSR winner is only converted to when k reaches its break-even
	// point — and on a warm decision cache the conversion happens in the
	// background while first calls serve tuned CSR (see SyncConvert).
	Iterations int

	// FormatHint forces the operator's format when HasFormatHint is set,
	// bypassing both the model and the decision cache (a forced format must
	// not poison cached decisions for structurally identical matrices tuned
	// without the hint). The conversion always runs inline, so the hint
	// doubles as an eager-convert switch. Tuning fails if no kernel is
	// registered for the format or its fill guard rejects the matrix.
	FormatHint    matrix.Format
	HasFormatHint bool

	// SyncConvert forces an amortised non-CSR winner to be converted inline
	// before TuneOpts returns, instead of in the background. It has no
	// effect when nothing would be converted (CSR winner, or k below
	// break-even). A single-CPU process (GOMAXPROCS 1) behaves as if
	// SyncConvert were always set: with no spare core, backgrounding the
	// conversion only delays the swap behind the serving goroutine.
	SyncConvert bool

	// HoldConversion, when non-nil, makes the background conversion worker
	// block until the channel is closed before it starts converting. It
	// exists for tests and the differential oracle, which need to pin the
	// operator in its pre-swap state and release the swap at a chosen
	// moment. Production callers leave it nil.
	HoldConversion <-chan struct{}
}

// validate rejects option combinations with no defined meaning.
func (o *TuneOptions) validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("autotune: negative iteration hint %d", o.Iterations)
	}
	return nil
}

// NeverAmortize is the BreakEvenIters sentinel recorded when converting can
// never pay off: the converted format's per-SpMV rate does not beat the
// tuned-CSR incumbent's, so no iteration count justifies the conversion.
const NeverAmortize = 1 << 30

// BreakEven returns the smallest iteration count k at which paying
// convertSec up front and running k SpMVs at chosenSec beats running all k
// on the unconverted matrix at incumbentSec:
//
//	convertSec + k·chosenSec ≤ k·incumbentSec
//
// It returns NeverAmortize when the chosen format is not actually faster
// (gain ≤ 0) or when either rate is missing (≤ 0): without measurements the
// safe answer is to keep serving CSR rather than convert on a guess.
func BreakEven(convertSec, incumbentSec, chosenSec float64) int {
	if incumbentSec <= 0 || chosenSec <= 0 {
		return NeverAmortize
	}
	gain := incumbentSec - chosenSec
	if gain <= 0 {
		return NeverAmortize
	}
	be := math.Ceil(convertSec / gain)
	if be < 1 {
		return 1
	}
	if be >= NeverAmortize {
		return NeverAmortize
	}
	return int(be)
}

// ConversionState reports where an operator stands in the background
// conversion lifecycle.
type ConversionState int32

const (
	// ConvertNone: the operator was born in its final format; no background
	// conversion was ever scheduled.
	ConvertNone ConversionState = iota
	// ConvertPending: a worker is building the amortised winner; calls serve
	// the tuned-CSR incumbent until the swap lands.
	ConvertPending
	// ConvertDone: the background conversion finished and the operator now
	// serves the converted format.
	ConvertDone
	// ConvertFailed: the background conversion failed (the fill guard can
	// reject a fingerprint-colliding matrix); the operator serves tuned CSR
	// permanently, which is always correct.
	ConvertFailed
)

// String returns a stable lower-case name for the state.
func (s ConversionState) String() string {
	switch s {
	case ConvertNone:
		return "none"
	case ConvertPending:
		return "pending"
	case ConvertDone:
		return "done"
	case ConvertFailed:
		return "failed"
	default:
		return fmt.Sprintf("ConversionState(%d)", int32(s))
	}
}

// ConversionState reports the operator's background-conversion state.
func (o *Operator[T]) ConversionState() ConversionState {
	return ConversionState(o.convState.Load())
}

// AwaitConversion blocks until a pending background conversion has either
// swapped in the converted engine or failed, then returns the final state.
// It returns immediately (ConvertNone) for operators born in their final
// format.
func (o *Operator[T]) AwaitConversion() ConversionState {
	if o.convDone != nil {
		<-o.convDone
	}
	return o.ConversionState()
}

// validForHint returns the cache-entry validation predicate for a tuning
// request. With an iteration hint, a non-CSR entry must carry the leader's
// amortisation measurements — otherwise the break-even point cannot be
// computed and the entry is treated as stale and re-tuned. This is how
// cached decisions are validated against the iteration hint while staying
// keyed purely by the structural fingerprint.
func validForHint(opts TuneOptions) func(CacheEntry) bool {
	if opts.Iterations <= 0 {
		return nil
	}
	return func(e CacheEntry) bool {
		return e.Format == matrix.FormatCSR ||
			(e.ConvertSec > 0 && e.SpMVSec > 0 && e.IncumbentSec > 0)
	}
}

// accountAmortization fills the payoff-model fields of a freshly decided
// non-CSR decision: the chosen format's per-SpMV rate, the tuned-CSR
// incumbent's rate, and the break-even iteration count they imply together
// with the already-measured conversion time. Rates the fallback already
// measured are reused; otherwise a bounded probe (same budget policy as the
// batch-crossover probe) runs on the steady-state pooled path.
func (t *Tuner[T]) accountAmortization(m *matrix.CSR[T], d *Decision, op *Operator[T]) {
	if d.Chosen == matrix.FormatCSR || m.NNZ() == 0 {
		return
	}
	start := time.Now()
	defer func() { d.AmortProbeSec = time.Since(start).Seconds() }()

	measure := t.probeBudget(d)
	flops := float64(kernels.FLOPs(m.NNZ()))

	if g, ok := d.Measured[d.Chosen]; ok && g > 0 {
		d.ChosenSpMVSec = flops / (g * 1e9)
	} else {
		e := op.eng.Load()
		x := make([]T, m.Cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]T, m.Rows)
		d.ChosenSpMVSec = MeasureSecPerOp(func() { e.kernel.RunPooled(e.mat, x, y, t.pool) }, measure)
	}

	if g, ok := d.Measured[matrix.FormatCSR]; ok && g > 0 {
		d.IncumbentSec = flops / (g * 1e9)
	} else {
		mat := &kernels.Mat[T]{Format: matrix.FormatCSR, CSR: m}
		k := t.kernelFor(matrix.FormatCSR)
		x := make([]T, m.Cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]T, m.Rows)
		d.IncumbentSec = MeasureSecPerOp(func() { k.RunPooled(mat, x, y, t.pool) }, measure)
	}

	d.BreakEvenIters = BreakEven(d.ConvertSec, d.IncumbentSec, d.ChosenSpMVSec)
}

// incumbent builds the tuned-CSR operator the amortised path serves: the
// zero-conversion-cost default of the payoff model. No probes run — the CSR
// input is wrapped as-is with the model's CSR kernel and the default batch
// crossover.
//
//smat:atomic-init
func (t *Tuner[T]) incumbent(m *matrix.CSR[T]) *Operator[T] {
	mat := &kernels.Mat[T]{Format: matrix.FormatCSR, CSR: m}
	op := newOperator(mat, t.kernelFor(matrix.FormatCSR), t.pool, m.NNZ())
	e := op.eng.Load()
	e.batch = t.lib.BatchForParams(matrix.FormatCSR, t.paramsFor(matrix.FormatCSR))
	e.batchCrossover = defaultBatchCrossover
	return op
}

// incumbentDecision rewrites d to serve the tuned-CSR incumbent op and
// records why (the hint overrode the asymptotic winner), including the
// incumbent's own parameters.
func (t *Tuner[T]) incumbentDecision(d *Decision, op *Operator[T]) {
	e := op.eng.Load()
	d.Amortized = true
	d.Converted = true
	d.Chosen = matrix.FormatCSR
	d.Kernel = e.kernel.Name
	d.Params = t.decisionParams(matrix.FormatCSR, e.kernel)
	d.BatchCrossover = 0
	if e.batch != nil {
		d.Params.BatchTile = e.batch.Params.BatchTile
		d.BatchCrossover = defaultBatchCrossover
	}
}

// amortize weighs a freshly decided (leader-path) operator against the
// caller's iteration hint. The asymptotic operator already exists — its
// conversion doubled as the cost probe — so when the hint says conversion
// does not pay, the materialised format is discarded and the tuned-CSR
// incumbent served instead; the conversion cost was bounded probe work,
// already accounted in the decision's overhead.
func (t *Tuner[T]) amortize(m *matrix.CSR[T], d *Decision, op *Operator[T], opts TuneOptions) *Operator[T] {
	if opts.Iterations <= 0 || d.Chosen == matrix.FormatCSR || opts.Iterations >= d.BreakEvenIters {
		d.Converted = true
		return op
	}
	inc := t.incumbent(m)
	t.incumbentDecision(d, inc)
	return inc
}

// applyAmortized materialises a cached decision under the caller's options.
// Without an iteration hint (or with a cached CSR winner) it is the plain
// inline apply. With a hint, the cached cost measurements decide: below
// break-even the tuned-CSR incumbent is served and nothing is converted at
// all; at or above it the conversion runs — inline when opts.SyncConvert is
// set, otherwise in the background while the incumbent serves the first
// calls, swapped in atomically when ready.
func (t *Tuner[T]) applyAmortized(m *matrix.CSR[T], d *Decision, entry CacheEntry, opts TuneOptions) (*Operator[T], error) {
	d.Asymptotic = entry.Format
	if opts.Iterations <= 0 || entry.Format == matrix.FormatCSR {
		return t.apply(m, d, entry)
	}

	d.ChosenSpMVSec = entry.SpMVSec
	d.IncumbentSec = entry.IncumbentSec
	d.BreakEvenIters = BreakEven(entry.ConvertSec, entry.IncumbentSec, entry.SpMVSec)

	if opts.Iterations < d.BreakEvenIters {
		// Too few iterations to pay for the conversion: the whole point of
		// the amortised cache hit is that nothing is converted here.
		op := t.incumbent(m)
		d.CacheHit = true
		d.Predicted = entry.Format
		d.PredictedOK = true
		d.Confidence = entry.Confidence
		t.incumbentDecision(d, op)
		return op, nil
	}

	if opts.SyncConvert || (runtime.GOMAXPROCS(0) == 1 && opts.HoldConversion == nil) {
		// Inline conversion: requested explicitly, or forced because a
		// single-CPU process has no spare core to pay the conversion off the
		// critical path — backgrounding there only delays the swap behind the
		// serving goroutine. A HoldConversion channel overrides the CPU check:
		// it exists precisely to pin the background protocol open for tests
		// and the differential oracle.
		return t.apply(m, d, entry)
	}

	// Amortised winner with enough iterations ahead: serve tuned CSR now,
	// build entry.Format in the background, swap when ready.
	op := t.incumbent(m)
	op.convDone = make(chan struct{})
	op.convState.Store(int32(ConvertPending))
	d.CacheHit = true
	d.Predicted = entry.Format
	d.PredictedOK = true
	d.Confidence = entry.Confidence
	d.Chosen = entry.Format
	d.Kernel = t.kernelFor(entry.Format).Name
	d.Params = entry.Params
	d.ConvertSec = entry.ConvertSec // the cost being paid in the background
	d.Converted = false
	cross := entry.BatchCrossover
	if cross < 2 {
		cross = defaultBatchCrossover
	}
	if t.lib.BatchForParams(entry.Format, entry.Params) != nil {
		d.BatchCrossover = cross
	}
	go t.convertWorker(op, m, entry, cross, opts.HoldConversion)
	return op, nil
}

// convertWorker is the single background conversion worker of one operator:
// it materialises the amortised winner and publishes it with one atomic
// engine store. The state transition to ConvertDone happens after the store,
// so an observer that sees Done is guaranteed the next call serves the new
// format. Failure (fill guard on a fingerprint-colliding matrix) leaves the
// operator serving tuned CSR permanently — correct, just not faster.
//
//smat:syncsafe
//smat:atomic-publish
func (t *Tuner[T]) convertWorker(op *Operator[T], m *matrix.CSR[T], entry CacheEntry, crossover int, hold <-chan struct{}) {
	defer close(op.convDone)
	if hold != nil {
		<-hold
	}
	mat, _, err := kernels.ConvertTimedParams(m, entry.Format, t.model.MaxFill, entry.Params)
	if err != nil {
		op.convState.Store(int32(ConvertFailed))
		return
	}
	e := &engine[T]{
		mat:            mat,
		kernel:         t.kernelFor(entry.Format),
		batch:          t.lib.BatchForParams(entry.Format, entry.Params),
		batchCrossover: crossover,
	}
	op.eng.Store(e)
	op.convState.Store(int32(ConvertDone))
}

// tuneHinted materialises the caller's format hint directly, bypassing both
// the model and the decision cache. The conversion is timed (it is the
// eager-convert reference point of the payoff model) but never weighed: the
// hint pins the format regardless of the iteration hint, so BreakEvenIters
// is left unset here.
func (t *Tuner[T]) tuneHinted(m *matrix.CSR[T], d *Decision, opts TuneOptions) (*Operator[T], error) {
	f := opts.FormatHint
	k := t.kernelFor(f)
	if k == nil {
		return nil, fmt.Errorf("autotune: no kernel registered for hinted format %v", f)
	}
	mat, timing, err := kernels.ConvertTimedParams(m, f, t.model.MaxFill, t.paramsFor(f))
	d.ConvertSec = timing.Sec
	if err != nil {
		return nil, err
	}
	d.ConvertStored = timing.Stored
	d.Predicted = f
	d.PredictedOK = true
	d.Confidence = 1
	d.Chosen = f
	d.Asymptotic = f
	d.Kernel = k.Name
	d.Params = t.decisionParams(f, k)
	d.Converted = true
	op := newOperator(mat, k, t.pool, m.NNZ())
	t.accountCSRBaseline(m, d)
	t.bindBatch(op, d)
	return op, nil
}
