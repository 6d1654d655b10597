// Package smat is an input-adaptive auto-tuner for sparse matrix-vector
// multiplication, a Go implementation of the system described in
//
//	Li, Tan, Chen, Sun — "SMAT: An Input Adaptive Auto-Tuner for Sparse
//	Matrix-Vector Multiplication", PLDI 2013.
//
// The library exposes a single unified programming interface in CSR format:
// the user supplies a matrix as compressed sparse rows and SMAT determines,
// at runtime, the best storage format (CSR, COO, DIA or ELL) and kernel
// implementation for it — either confidently from a machine-learned ruleset
// trained off-line on a large matrix corpus, or by a fast execute-and-
// measure fallback when the model is unsure.
//
// Typical use:
//
//	model := smat.DefaultModel()              // or LoadModelFile("my-model.json")
//	tuner := smat.NewTuner[float64](model, smat.WithThreads(8))
//	a, _ := smat.FromEntries[float64](rows, cols, entries)
//	tuner.CSRSpMV(a, x, y)                    // y = A·x, auto-tuned
//
// Tuner and Matrix are safe for concurrent use: tuning decisions land in a
// sharded feature-keyed cache with singleflight deduplication, so the
// tuning cost of a matrix structure is paid once and amortised across all
// goroutines that hit it.
//
// Repeated SpMV calls run on a steady-state execution engine: each tuner
// owns a persistent pool of worker goroutines (created once, thread count
// resolved once) and each matrix caches its execution plan (load-balanced
// work partition), so the per-call hot path spawns nothing, re-partitions
// nothing, and allocates nothing.
//
// A handle converts to its format only once its calls have paid for the
// conversion: when CSRSpMV tunes a never-seen structure without options and
// the model confidently picks a format that costs a conversion, the call
// serves tuned CSR, and the handle converts on the call whose products, timed
// at the first call's rate, add up to the predicted conversion cost
// (Decision.ConvertAt). A caller that makes one call pays for no conversion.
// Callers that know how long a matrix will live can say so: per-call
// TuneOptions (WithIterations, WithFormatHint) make conversion cost a
// first-class input to the decision and convert before the call returns, so
// a matrix facing only k more SpMVs is converted away from CSR only when k
// reaches the measured break-even point (see the "Amortized conversion"
// section of the README). Tune, and a call that reuses a decision, convert
// before returning too.
package smat

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"smat/internal/autotune"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mmio"
)

// Float is the set of supported element types.
type Float = matrix.Float

// Format identifies a sparse storage format.
type Format = matrix.Format

// The four basic storage formats of the paper's Section 2.1.
const (
	FormatCSR = matrix.FormatCSR
	FormatCOO = matrix.FormatCOO
	FormatDIA = matrix.FormatDIA
	FormatELL = matrix.FormatELL
)

// Entry is one (row, col, value) coordinate used to assemble a matrix.
type Entry[T Float] struct {
	Row, Col int
	Val      T
}

// Matrix is SMAT's matrix handle: a validated CSR matrix plus the cached
// tuning result, so repeated CSRSpMV calls pay the tuning cost once.
//
// A Matrix is safe for concurrent use once constructed (the CSR payload is
// immutable; the tuned-operator slot is updated atomically). The handle
// caches the operator of the tuner that most recently tuned it — see
// CSRSpMV for the ownership rules.
type Matrix[T Float] struct {
	csr *matrix.CSR[T]
	// sig is the pattern signature NewCSR's validation pass computed; zero on
	// a handle built any other way.
	sig matrix.Signature

	// tuned is the per-handle decision slot: loaded lock-free on the hot
	// path, replaced atomically after tuning. tuneMu serialises tuning for
	// this handle so N concurrent first uses run one tuning pass.
	tuned  atomic.Pointer[tunedSlot[T]]
	tuneMu sync.Mutex
}

// tunedSlot pairs a tuned operator with the tuner that produced it and the
// per-call options it was tuned under, so a single atomic load tells CSRSpMV
// what to run, whether it may, and whether the caller's current options
// still match. A slot whose operator serves tuned CSR ahead of a deferred
// conversion holds it in lazy: the pick and the layout it converts from, so
// the conversion needs no second scan and no second cache lookup.
type tunedSlot[T Float] struct {
	op    *Operator[T]
	owner *Tuner[T]
	key   autotune.TuneOptions
	lazy  *autotune.Deferred[T]
}

// serves reports whether the slot holds t's operator for the options key; an
// empty slot serves nobody.
func (s *tunedSlot[T]) serves(t *Tuner[T], key autotune.TuneOptions) bool {
	return s != nil && s.owner == t && s.key == key
}

// FromEntries assembles a matrix from unordered coordinate entries:
// duplicates are summed in the order they appear in entries, and zeros,
// including sums that cancel, are dropped. It costs O(nnz + rows) (a
// counting sort by row; a row of d > 32 entries out of column order adds
// O(d log d)) and allocates the matrix and one copy of the entries.
func FromEntries[T Float](rows, cols int, entries []Entry[T]) (*Matrix[T], error) {
	ts := make([]matrix.Triple[T], len(entries))
	for i, e := range entries {
		ts[i] = matrix.Triple[T]{Row: e.Row, Col: e.Col, Val: e.Val}
	}
	m, err := matrix.FromTriples(rows, cols, ts)
	if err != nil {
		return nil, err
	}
	return &Matrix[T]{csr: m}, nil
}

// NewCSR wraps raw CSR arrays (rowPtr of length rows+1, colIdx and vals of
// length nnz, columns strictly increasing within each row). The arrays are
// used directly, not copied; the caller must not mutate them afterwards.
//
// The validation pass also signs the sparsity pattern — a hash of the contents
// of rowPtr and colIdx — and a tuner remembers, per signature, what scanning
// that pattern told it (the Table 2 features, the DIA/ELL layout; bounded by
// WithCacheSize). Submitting a pattern again with new values — the same
// arrays or an equal copy of them — therefore pays validation and the value
// layout, not the structure scan (Decision.StructureHit,
// Stats().StructureHits). Identity is by content: arrays
// rewritten in place to another pattern and wrapped again sign differently and
// are scanned, and what is remembered is checked against the matrix as it is
// used, never trusted on the hash. Nothing of the caller's arrays is retained
// by that memory.
func NewCSR[T Float](rows, cols int, rowPtr, colIdx []int, vals []T) (*Matrix[T], error) {
	m := &matrix.CSR[T]{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
	sig, err := m.Sign()
	if err != nil {
		return nil, err
	}
	return &Matrix[T]{csr: m, sig: sig}, nil
}

// ReadMatrixMarket parses a Matrix Market (.mtx) coordinate stream and
// assembles it as FromEntries does, in O(nnz + rows): entries repeated in
// the file are summed in file order, zeros dropped.
func ReadMatrixMarket(r io.Reader) (*Matrix[float64], error) {
	m, err := mmio.Read(r)
	if err != nil {
		return nil, err
	}
	return &Matrix[float64]{csr: m}, nil
}

// Dims returns the matrix dimensions.
func (a *Matrix[T]) Dims() (rows, cols int) { return a.csr.Rows, a.csr.Cols }

// NNZ returns the number of stored nonzeros.
func (a *Matrix[T]) NNZ() int { return a.csr.NNZ() }

// CSR exposes the underlying representation for interoperation with the
// library's internal packages (AMG, benchmarks). Treat it as read-only.
func (a *Matrix[T]) CSR() *matrix.CSR[T] { return a.csr }

// Features extracts the paper's Table 2 sparse-structure parameters.
func (a *Matrix[T]) Features() Features {
	return featuresOf(a.csr)
}

// Tuner holds a trained model and tunes matrices against it. A Tuner is
// safe for concurrent use by any number of goroutines: its decision cache
// is sharded, and concurrent tuning requests for structurally identical
// matrices are collapsed into a single tuning run (singleflight).
type Tuner[T Float] struct {
	inner *autotune.Tuner[T]
}

// Stats reports the tuner's live counters — the decision cache's (embedded
// CacheStats), the worker pool's (Pool), the DIA conversions that counted
// their diagonals (DiagonalTallies), the execute-and-measure selections
// (Fallbacks) and the deferred conversions (DeferredTunes, DeferredSwaps);
// see Tuner.Stats.
type Stats = autotune.Stats

// CacheStats is the decision-cache part of Stats.
type CacheStats = autotune.CacheStats

// PoolStats is the worker-pool part of Stats.
type PoolStats = kernels.PoolStats

// Option configures NewTuner.
type Option func(*autotune.Config)

// WithThreads sets the kernel thread fan-out (capped to GOMAXPROCS). n ≤ 0
// selects GOMAXPROCS, which is also the default.
//
// A model holds one class per trained thread count; the tuner runs the class
// trained at the largest count not above its own (Model.Class): its ruleset
// decides and its kernels — partitioned instances, which run their unsplit
// arithmetic at one thread — are bound. Operators of a tuner above one
// thread run matrices over the engine's work cutoff on the tuner's worker
// pool and smaller ones serially; Tuner.Stats reports which happened.
func WithThreads(n int) Option {
	return func(c *autotune.Config) { c.Threads = n }
}

// WithCacheSize bounds the feature-keyed decision cache to roughly n
// entries (LRU-evicted beyond that). n ≤ 0 disables caching entirely; the
// default is autotune's DefaultCacheSize (1024).
func WithCacheSize(n int) Option {
	return func(c *autotune.Config) {
		if n <= 0 {
			n = -1
		}
		c.CacheSize = n
	}
}

// NewTuner builds a runtime tuner for a model. With no options it uses the
// model's trained thread count and a default-sized decision cache:
//
//	tuner := smat.NewTuner[float64](model,
//	    smat.WithThreads(8), smat.WithCacheSize(4096))
func NewTuner[T Float](model *Model, opts ...Option) *Tuner[T] {
	var c autotune.Config
	for _, o := range opts {
		o(&c)
	}
	return &Tuner[T]{inner: autotune.New[T](model, c)}
}

// Threads returns the tuner's thread configuration.
func (t *Tuner[T]) Threads() int { return t.inner.Threads() }

// Close releases the tuner's persistent kernel worker pool (the steady-state
// execution engine). Operators the tuner has produced remain usable — their
// parallel kernels run their chunks on the calling goroutine, with the same
// results — and an abandoned tuner sheds its workers on garbage collection,
// so Close is an optimisation for deterministic shutdown, not an obligation.
func (t *Tuner[T]) Close() { t.inner.Close() }

// Stats snapshots the tuner's live counters. The decision cache's — hits,
// misses, singleflight-shared waits, LRU evictions, hint-driven refreshes —
// are zero when caching is disabled. Pool says what the operators'
// MulVec/MulVecBatch calls did with the worker pool: dispatches the
// persistent workers ran (how many of those followed an idle gap and had to
// wake a parked worker, and how many chunks the caller ran because no worker
// had claimed them in time), dispatches that found the pool busy or closed and
// ran their chunks on the caller instead (Overflow), calls that stayed serial
// under the work cutoff, and workers a tune warmed.
// DiagonalTallies counts the DIA conversions that read the column indices to
// count the matrix's diagonals; a handle from NewCSR whose pattern was
// converted to DIA before keeps them, and does not count again. DeferredTunes
// counts the first CSRSpMV calls that served
// tuned CSR and deferred their conversion, DeferredSwaps the handles that
// have since converted (see CSRSpMV).
func (t *Tuner[T]) Stats() Stats { return t.inner.Stats() }

// TuneOption carries per-call tuning intent into Tune, CSRSpMV and
// CSRSpMVBatch. Options are variadic additions — calls without any behave
// exactly as before (asymptotic tuning).
//
// Precedence: WithFormatHint beats WithIterations — it bypasses the model,
// the decision cache and the iteration hint entirely. Options only affect
// the call that carries them; the operator they produce is cached on the
// matrix handle keyed by the effective options, so alternating option sets
// on one handle re-tunes (cheaply, via the decision cache) rather than
// serving a stale operator.
type TuneOption func(*autotune.TuneOptions)

// WithIterations tells the tuner the matrix is expected to serve n more
// SpMV operations (a batch of width k counts as k). The decision becomes
// "best format given n remaining SpMVs": a non-CSR winner is adopted only
// when n reaches its measured break-even point, and is then converted before
// the call returns. n ≤ 0 is rejected with an
// error from the call carrying the option: an estimate of zero remaining
// operations means there is nothing to tune for.
func WithIterations(n int) TuneOption {
	return func(o *autotune.TuneOptions) {
		// 0 is TuneOptions' "no hint": a rejected n goes in negative, which
		// no accepted hint is, and TuneOpts turns it into the error.
		o.Iterations = n
		if n <= 0 {
			o.Iterations = -1
		}
	}
}

// WithFormatHint forces the operator's storage format, bypassing the model
// and the decision cache. The conversion always runs inline, so the hint
// doubles as an eager-convert switch. A format other than the four basic
// ones is an error before the matrix is read; tuning fails if the format's
// fill guard rejects the matrix. The hint takes precedence over any
// iteration hint.
func WithFormatHint(f Format) TuneOption {
	return func(o *autotune.TuneOptions) {
		o.FormatHint = f
		o.HasFormatHint = true
	}
}

// WithSyncConvert has no effect: an unhinted CSRSpMV may still defer its
// conversion to a later call (see Tuner.CSRSpMV).
//
// Deprecated: the option stays for benchmark/, which passes it.
func WithSyncConvert() TuneOption {
	return func(*autotune.TuneOptions) {}
}

// Tune selects the format and kernel for a matrix and returns the tuned
// operator together with the decision record. Tune always runs the tuning
// procedure (served from the decision cache when a structurally identical
// matrix was tuned before) and atomically replaces the operator cached on
// the matrix handle for CSRSpMV; like a first CSRSpMV it holds the handle's
// tuning mutex, so tuning passes on one handle run one at a time. Per-call
// options refine the decision; see TuneOption.
func (t *Tuner[T]) Tune(a *Matrix[T], opts ...TuneOption) (*Operator[T], error) {
	s, _, err := a.tune(t, a.key(opts), true, 0, nil)
	if err != nil {
		return nil, err
	}
	return s.op, nil
}

// CSRSpMV is the paper's unified interface (SMAT_xCSR_SpMV): it computes
// y = A·x on a CSR-format input, auto-tuning the matrix on first use and
// reusing the decision afterwards. x must have length Cols, y length Rows,
// and the two must not share memory: kernels clear y and then accumulate
// reads of x, so an aliased pair would silently corrupt the product. An
// overlapping x/y is rejected with an error before any kernel runs.
//
// CSRSpMV is safe to call from many goroutines on the same matrix: the
// first use tunes exactly once (concurrent callers block on that one run)
// and later calls reuse the operator lock-free. The handle's operator
// belongs to the tuner that produced it — calling CSRSpMV with a different
// tuner, or with different per-call options, re-tunes and atomically
// replaces it (usually cheaply, as a decision cache hit). Code that serves
// several tuners on one matrix should hold the per-tuner Operators returned
// by Tune instead of ping-ponging the handle.
//
// Per-call options (see TuneOption) shape the first-use tuning decision:
// steady callers pass the same options on every call and pay their cost only
// when the handle actually tunes.
//
// A first use without options whose structure the tuner has not decided
// before (a decision-cache miss), and whose format the model picks with
// confidence, does not convert when that format costs a conversion (DIA, COO,
// or an ELL copy): the call serves tuned CSR, timed, and the handle converts
// before product Decision.ConvertAt — the first product count whose tuned-CSR
// time, at the first call's rate, reaches the pick's predicted conversion cost
// (a batch of width k counts as k), and never within the first call. Until
// then a call costs one atomic add beyond the product; the call that would run
// product ConvertAt converts first, replacing the handle's operator as Tune
// does, and Tuner.Stats counts both events. A conversion that fails leaves the
// handle serving tuned CSR, with the error in Decision.ConvertErr. Every other
// first use — a decision-cache hit, a measured choice, an ELL view of the
// input's own arrays, a call with options — converts before it returns.
func (t *Tuner[T]) CSRSpMV(a *Matrix[T], x, y []T, opts ...TuneOption) error {
	rows, cols := a.Dims()
	if len(x) != cols || len(y) != rows {
		return fmt.Errorf("smat: CSRSpMV on %dx%d matrix with |x|=%d |y|=%d", rows, cols, len(x), len(y))
	}
	if matrix.SlicesOverlap(x, y) {
		return fmt.Errorf("smat: CSRSpMV x and y share memory; SpMV reads x while writing y")
	}
	return t.run(a, opts, 1, func(op *Operator[T]) { op.MulVec(x, y) })
}

// CSRSpMVBatch computes Y = A·X for k right-hand sides at once, the batched
// companion of CSRSpMV. The vectors are interleaved: column c of X occupies
// xb[c*k : (c+1)*k] and row r of Y occupies yb[r*k : (r+1)*k], so xb must
// have length Cols·k and yb length Rows·k (use Batch to pack and unpack
// ordinary []T vectors). The matrix is tuned on first use exactly as in
// CSRSpMV; the batched product then runs the format's register-tiled SpMM
// kernel, one pass over the matrix for all k vectors (k = 1 runs the tuned
// single-vector kernel). k = 0 is a no-op; a negative k, mis-sized buffers, or xb/yb sharing memory return an
// error before any kernel runs. Per-call options behave as in CSRSpMV.
func (t *Tuner[T]) CSRSpMVBatch(a *Matrix[T], xb, yb []T, k int, opts ...TuneOption) error {
	if k < 0 {
		return fmt.Errorf("smat: CSRSpMVBatch with negative batch width %d", k)
	}
	rows, cols := a.Dims()
	if len(xb) != cols*k || len(yb) != rows*k {
		return fmt.Errorf("smat: CSRSpMVBatch on %dx%d matrix with k=%d needs |xb|=%d |yb|=%d, got %d and %d",
			rows, cols, k, cols*k, rows*k, len(xb), len(yb))
	}
	if matrix.SlicesOverlap(xb, yb) {
		return fmt.Errorf("smat: CSRSpMVBatch xb and yb share memory; SpMV reads X while writing Y")
	}
	if k == 0 {
		return nil
	}
	return t.run(a, opts, k, func(op *Operator[T]) { op.MulVecBatch(xb, yb, k) })
}

// key is a call's options applied to the handle's. A call without options
// allocates nothing: only applied's copy, which the options see by address,
// lives on the heap.
func (a *Matrix[T]) key(opts []TuneOption) autotune.TuneOptions {
	o := autotune.TuneOptions{Pattern: a.sig}
	if len(opts) > 0 {
		o = applied(o, opts)
	}
	return o
}

// applied is o with opts applied.
func applied(o autotune.TuneOptions, opts []TuneOption) autotune.TuneOptions {
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// run runs a call's k products, mul, on the handle's operator for the call's
// options: lock-free when the slot already holds t's operator for them, tuned
// first otherwise. On a slot with a deferred conversion it counts the
// products, and the call that makes the conversion due converts first.
func (t *Tuner[T]) run(a *Matrix[T], opts []TuneOption, k int, mul func(*Operator[T])) error {
	key := a.key(opts)
	s := a.tuned.Load()
	if !s.serves(t, key) {
		var ran bool
		var err error
		if s, ran, err = a.tune(t, key, false, k, mul); err != nil || ran {
			return err
		}
	}
	if s.lazy != nil && s.lazy.Due(k) {
		s = a.swap(s)
	}
	mul(s.op)
	return nil
}

// tune tunes a for t under the handle's mutex, so concurrent first uses of
// one matrix run exactly one tuning pass instead of racing: unless retune is
// set, a slot another caller filled meanwhile is reused. With mul — a first
// call's k products — the tune may defer its conversion (TuneLazy); it then
// runs mul on the tuned-CSR operator itself, timed, schedules the conversion
// from that time and reports ran. Without mul (Tune) it converts at once.
func (a *Matrix[T]) tune(t *Tuner[T], key autotune.TuneOptions, retune bool, k int, mul func(*Operator[T])) (s *tunedSlot[T], ran bool, err error) {
	a.tuneMu.Lock()
	defer a.tuneMu.Unlock()
	if s := a.tuned.Load(); !retune && s.serves(t, key) {
		return s, false, nil
	}
	var op *autotune.Operator[T]
	var later *autotune.Deferred[T]
	if mul == nil {
		op, _, err = t.inner.TuneOpts(a.csr, key)
	} else {
		op, later, err = t.inner.TuneLazy(a.csr, key)
	}
	if err != nil {
		return nil, false, err
	}
	s = &tunedSlot[T]{op: &Operator[T]{op}, owner: t, key: key, lazy: later}
	if later != nil {
		start := time.Now()
		mul(s.op)
		later.Schedule(time.Since(start).Seconds(), k)
		ran = true
	}
	a.tuned.Store(s)
	return s, ran, nil
}

// swap is the call s's deferred conversion is due at: it converts under the
// handle's mutex, before the call's products, and publishes a slot with the
// converted operator — or with tuned CSR for good, when the conversion
// failed — and nothing deferred. A slot replaced meanwhile (Tune, other
// options, another tuner) is not converted: the call serves the operator it
// started with.
func (a *Matrix[T]) swap(s *tunedSlot[T]) *tunedSlot[T] {
	a.tuneMu.Lock()
	defer a.tuneMu.Unlock()
	if a.tuned.Load() != s {
		return s
	}
	s = &tunedSlot[T]{op: &Operator[T]{s.lazy.Convert()}, owner: s.owner, key: s.key}
	a.tuned.Store(s)
	return s
}

// Operator returns the tuned operator cached on the handle by the most
// recent Tune or CSRSpMV, so callers can inspect the decision without
// re-tuning. It returns nil if the matrix has not been tuned yet.
func (a *Matrix[T]) Operator() *Operator[T] {
	if s := a.tuned.Load(); s != nil {
		return s.op
	}
	return nil
}

// Operator is a tuned SpMV bound to its chosen format and kernel: MulVec and
// MulVecBatch run it, Decision says how it was chosen, and RunChunks with
// Threads lends its worker pool to the solvers (solve.Pooled). MulVec and
// MulVecBatch panic on mis-sized or overlapping vectors; the error-returning
// entry points are Tuner.CSRSpMV and Tuner.CSRSpMVBatch.
type Operator[T Float] struct{ *autotune.Operator[T] }

// NeverBatch was the Decision.BatchCrossover sentinel for an operator whose
// batched calls always looped the single-vector kernel. It is never reported.
//
// Deprecated: MulVecBatch has no loop path; Decision.BatchCrossover is
// always 2.
const NeverBatch = 1 << 30

// NeverAmortize is the Decision.BreakEvenIters sentinel recorded when
// converting can never pay off: the converted format is not actually faster
// than the tuned-CSR incumbent, so no iteration count justifies the
// conversion cost.
const NeverAmortize = autotune.NeverAmortize

// Decision is the record of the tune behind an operator: how the format was
// chosen (a confident prediction, the execute-and-measure fallback or the
// decision cache), whether the tune read the structure, the payoff arithmetic
// under an iteration hint, the Table 2 features and the seconds each stage
// spent. Overhead() is the tune's cost in CSR-SpMV executions, 0 on a path
// that never ran one; String renders the record on one line.
//
// Its Features are the runtime's: M, N, NNZ, aver_RD, max_RD, var_RD, ER_ELL
// and R exact, from one pass over the row pointers; Ndiags, NTdiags_ratio and
// ER_DIA always estimated from a bounded sample of the entries, exact on
// banded and stencil matrices. A DIA conversion counts the diagonals for its
// own layout and leaves these features as they are. Matrix.Features returns
// the exact ones.
type Decision = autotune.Decision
