// The staged tuning pipeline. Every TuneOpts call runs a subset of
//
//	extract → select → payoff → build → probe → record
//
// over one per-call state. A leader (cache miss, format hint, or no cache)
// runs select → build → probe → payoff: its conversion doubles as the cost
// probe, so the payoff is weighed last. A lazy call's unhinted leader whose
// confident pick costs a conversion skips build: it serves tuned CSR and hands
// the conversion back as a Deferred (deferred.go). A cache hit runs select →
// payoff → build, so nothing is converted below break-even. All end in serve,
// which records the decision and hands the operator its engine. Extract reads
// RowPtr once and at most DiagSample column indices — the features and every
// conversion work from that — or, for a signed matrix whose pattern the
// cache's structure index remembers, nothing: the record is remembered.
// Beyond the entries a conversion places, the one O(nnz) read of ColIdx is
// DIA's tally of its diagonals, inside its conversion, once per signed
// pattern (learn).
// A kernel runs only where the call itself consumes the measurement: two runs
// of each contender in the execute-and-measure selector, and the CSR baseline
// and the payoff rates under an iteration hint. A predicted, format-hinted or
// cache-hit tune runs none. DESIGN.md §11 has the stage × path table.
package autotune

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// tuning is the state of one TuneOpts call, shared by its stages.
type tuning[T matrix.Float] struct {
	t    *Tuner[T]
	m    *matrix.CSR[T]
	rec  *structureRecord // of m: extract's row pass and sample, or the structure index's memory of them
	key  structureKey     // m's pattern in the structure index; a zero sig for none
	opts TuneOptions
	// lazy is set for TuneLazy: a predicted leader may defer its conversion
	// (defers), and later is then that conversion.
	lazy  bool
	later *Deferred[T]

	// op is the operator under construction; serve sets its engine.
	op *Operator[T]

	// base is what extract learned. Every attempt (begin) records onto a
	// fresh copy d, so a re-decide after a fingerprint collision inherits
	// nothing from the attempt it replaces.
	base Decision
	d    *Decision

	// inc is the call's tuned-CSR engine, built on first use; x and y the
	// one probe workspace — an all-ones input and its output — allocated on
	// first use.
	inc  *engine[T]
	x, y []T
}

// choice is what a selector hands the rest of the pipeline: the format to
// serve asymptotically, how it was arrived at, and whatever the selector
// learned on the way.
type choice[T matrix.Float] struct {
	format     matrix.Format
	confidence float64
	predicted  bool // selected without measuring: hint, cache entry, confident rule group
	cacheHit   bool
	deferred   bool // a confident pick left unconverted (tuning.defers)

	// The payoff model's rates and break-even, zero while unknown: the cache
	// selector copies the entry's for a hinted request, the measuring
	// selector records the rates it timed, the leader's probe fills in the
	// rest.
	spmvSec, incumbentSec float64
	breakEven             int

	// eng is the format materialised, once it has been — by a selector that
	// had to convert to select, or by the build stage — and convert that
	// conversion's timing.
	eng     *engine[T]
	convert kernels.ConvertTiming
}

// extract is the first stage: the symbolic half of the tune — the Table 2
// features and the conversions' layout, which depend on RowPtr and ColIdx
// alone — recalled from the structure index when the matrix is signed and the
// index knows its pattern, estimated otherwise. A matrix large enough for its
// conversion to run on the pool (kernels.ConvertWork) wakes the workers first,
// so that their OS wake overlaps the scan, not the conversion.
func (t *Tuner[T]) extract(m *matrix.CSR[T], opts TuneOptions) *tuning[T] {
	if t.threads > 1 && m.NNZ() >= kernels.ConvertWork {
		t.pool.Warm()
	}
	tn := &tuning[T]{t: t, m: m, opts: opts, op: &Operator[T]{pool: t.pool, nnz: m.NNZ()}}
	tn.key = structureKey{sig: opts.Pattern, rows: m.Rows, cols: m.Cols, nnz: m.NNZ()}
	tn.base.IterationHint = opts.Iterations
	tn.read(true)
	return tn
}

// read is extract's work, timed: the record recalled if it may be and is
// known, otherwise the row pass and the diagonal sample (features.Estimated),
// whose record is remembered. Neither reads more than DiagSample column
// indices: the diagonals DIA converts to are tallied by its conversion, the
// one place they are needed (learn).
func (tn *tuning[T]) read(recall bool) {
	start := time.Now()
	tn.base.StructureHit = recall && tn.recall()
	if !tn.base.StructureHit {
		ft, s := features.Estimated(tn.m)
		tn.adopt(&structureRecord{features: ft, layout: s.Layout})
		tn.t.remember(tn.key, tn.rec)
	}
	tn.base.FeatureSec += time.Since(start).Seconds()
}

// recall takes the record from the structure index, if it remembers the call's
// pattern. What it returns was scanned from a matrix of this signature and
// shape: this very pattern, unless two patterns share a signature — the
// conversions check (matrix.ErrStructureMismatch), and run starts over from a
// scan.
func (tn *tuning[T]) recall() bool {
	if tn.t.cache == nil || tn.key.sig == 0 {
		return false
	}
	rec := tn.t.cache.recallStructure(tn.key)
	if rec == nil {
		return false
	}
	tn.adopt(rec)
	return true
}

// foreign reports that a conversion refused the call's layout as another
// pattern's. Only a recalled layout can be; the attempt that hit it is void —
// its features are the other pattern's too — and run starts over from a scan.
func foreign(err error) bool { return errors.Is(err, matrix.ErrStructureMismatch) }

// adopt makes rec the call's record of its matrix.
func (tn *tuning[T]) adopt(rec *structureRecord) {
	tn.rec, tn.base.Features = rec, rec.features
}

// remember files rec in the structure index under k: a signed pattern's
// record, on a tuner with a cache. Unsigned matrices and cacheless tuners
// have no part in the index.
func (t *Tuner[T]) remember(k structureKey, rec *structureRecord) {
	if t.cache != nil && k.sig != 0 {
		t.cache.rememberStructure(k, rec)
	}
}

// learn is what a tune keeps of a conversion of m from rec: a DIA conversion
// from a record that lists no diagonals tallied them, and the record returned
// — a copy of rec, filed in the structure index under k — lists them, so that
// no later DIA conversion of the pattern tallies again. The tally cannot
// catch a recalled record of another pattern, so learn estimates m afresh: if
// rec is not m's, it files m's own and returns matrix.ErrStructureMismatch.
func (t *Tuner[T]) learn(k structureKey, m *matrix.CSR[T], rec *structureRecord, recalled bool, mat *kernels.Mat[T]) (*structureRecord, error) {
	if mat.DIA == nil || rec.layout.DiagOffsets != nil {
		return rec, nil
	}
	next := *rec
	var err error
	if recalled {
		if ft, s := features.Estimated(m); ft != rec.features {
			next, err = structureRecord{features: ft, layout: s.Layout}, matrix.ErrStructureMismatch
		}
	}
	next.layout.DiagOffsets = slices.Clone(mat.DIA.Offsets)
	t.remember(k, &next)
	return &next, err
}

// begin starts an attempt on a fresh record.
func (tn *tuning[T]) begin() {
	d := tn.base
	tn.d = &d
}

// hinted is the format-hint selector's path: the hint pins the format, so
// the choice is built but never weighed — the payoff rates are not measured
// and BreakEvenIters stays unset.
func (tn *tuning[T]) hinted() (*choice[T], error) {
	tn.begin()
	f := tn.opts.FormatHint
	c := &choice[T]{format: f, confidence: 1, predicted: true}
	if err := tn.materialise(c); err != nil {
		return nil, err
	}
	return c, nil
}

// cached is the cache selector, starting a hit's attempt: the entry's
// format and — for a request carrying an
// iteration hint — its costs and the break-even point they imply. An
// un-hinted hit is asymptotic and carries no payoff numbers.
func (tn *tuning[T]) cached(entry CacheEntry) *choice[T] {
	tn.begin()
	c := &choice[T]{format: entry.Format, confidence: entry.Confidence, predicted: true, cacheHit: true}
	if tn.opts.Iterations > 0 && entry.Format != matrix.FormatCSR {
		c.spmvSec, c.incumbentSec = entry.SpMVSec, entry.IncumbentSec
		c.breakEven = BreakEven(entry.ConvertSec, entry.IncumbentSec, entry.SpMVSec)
	}
	return c
}

// lead is the leader's path — select → build → probe — returning the
// asymptotic choice materialised and, under an iteration hint, costed; serve
// weighs it against the hint. Without one the payoff stage serves the choice
// whatever its rates, so they are not measured: the entry is cached without
// them, and validForHint makes the first hinted request lead again. CSR has
// nothing to pay off and an empty matrix nothing to measure.
func (tn *tuning[T]) lead() (*choice[T], error) {
	tn.begin()
	c, err := tn.choose()
	if err != nil {
		return nil, err
	}
	if tn.opts.Iterations > 0 && c.format != matrix.FormatCSR && tn.m.NNZ() > 0 {
		tn.rates(c)
	}
	return c, nil
}

// choose is the leader's select and build: the model's confident pick if it
// converts — or, on a call that defers it, unconverted — otherwise
// execute-and-measure.
func (tn *tuning[T]) choose() (*choice[T], error) {
	if c, ok := tn.confident(); ok {
		if c.deferred = tn.defers(c); c.deferred {
			return c, nil
		}
		switch err := tn.materialise(c); {
		case err == nil:
			return c, nil
		case foreign(err):
			return nil, err
		}
	}
	// No confident prediction, or the fill guard rejected it.
	return tn.measure()
}

// confident is the model selector over the call's features: the pick
// predict is sure of, if any.
func (tn *tuning[T]) confident() (*choice[T], bool) {
	f, conf, ok := tn.t.predict(&tn.d.Features)
	if !ok {
		return nil, false
	}
	return &choice[T]{format: f, confidence: conf, predicted: true}, true
}

// predict is the ruleset's verdict on a feature record: rule groups in DIA →
// ELL → CSR → COO order (Section 6); the first group with a matching rule
// above the confidence threshold, feasible for the matrix, wins. ok is false
// when no group does.
func (t *Tuner[T]) predict(ft *features.Features) (matrix.Format, float64, bool) {
	fv := ft.Vector()
	for _, f := range matrix.Formats {
		if conf, ok := t.groupConfidence(fv, f); ok && conf > t.model.ConfidenceThreshold && feasible(f, ft, t.model.MaxFill) {
			return f, conf, true
		}
	}
	return 0, 0, false
}

// bestGuess is the ruleset's pick regardless of the threshold: the
// highest-confidence matching, feasible rule group, or CSR, the ruleset
// default, when none matches. The measuring selector counts how often its
// winner agrees (Stats().FallbackAgreed).
func (t *Tuner[T]) bestGuess(ft *features.Features) (matrix.Format, float64) {
	fv := ft.Vector()
	best, conf := matrix.FormatCSR, 0.0
	for _, f := range matrix.Formats {
		if c, ok := t.groupConfidence(fv, f); ok && c > conf && feasible(f, ft, t.model.MaxFill) {
			best, conf = f, c
		}
	}
	return best, conf
}

// fallbackMaxFill is the tighter zero-fill bound of the execute-and-measure
// path: a DIA/ELL representation padding more than this multiple of NNZ
// cannot win, and converting it just to measure it would blow the fallback
// budget far past the paper's ~16 CSR-SpMV executions.
const fallbackMaxFill = 3.0

// fallbackMargin is the relative gain a challenger must show over the
// tuned-CSR incumbent to take a tune off it (pickMeasured).
const fallbackMargin = 0.03

// contenders lists the formats the measuring selector times, a pure function
// of the features and the ruleset: the tuned-CSR incumbent first, then every
// format whose rule group matched the features — at whatever confidence; a
// confident group gets here when its conversion failed — and that fits
// maxFill. A ruleset with no opinion at all (no group matched, CSR's
// included) leaves every feasible format open.
func (t *Tuner[T]) contenders(ft *features.Features, maxFill float64) []matrix.Format {
	fv := ft.Vector()
	var matched [len(matrix.Formats)]bool
	opinion := false
	for i, f := range matrix.Formats {
		_, matched[i] = t.groupConfidence(fv, f)
		opinion = opinion || matched[i]
	}
	out := []matrix.Format{matrix.FormatCSR}
	for i, f := range matrix.Formats {
		if f != matrix.FormatCSR && (matched[i] || !opinion) && feasible(f, ft, maxFill) {
			out = append(out, f)
		}
	}
	return out
}

// pickMeasured is the measuring selector's verdict over the contenders' best
// seconds per SpMV, the incumbent's at index 0: the fastest challenger that
// beats the incumbent by more than fallbackMargin, else the incumbent — a tie,
// a gain inside the margin or an unresolvable timing is no reason to leave the
// format that costs no conversion. Challengers compete on plain speed: only
// the incumbent's bar carries the margin.
func pickMeasured(secs []float64) int {
	win, bar := 0, secs[0]/(1+fallbackMargin)
	for i := 1; i < len(secs); i++ {
		if secs[i] < bar {
			win, bar = i, secs[i]
		}
	}
	return win
}

// measure is the execute-and-measure selector. It times only the formats the
// ruleset left open (contenders), twice each on the pooled steady-state path
// — the regime the chosen operator will run in — and runs no other kernel.
// The contenders are built first and timed back to back, so the workers are
// woken once, by the incumbent's first run: that run is the call's CSR-SpMV
// unit (Decision.CSRSpMVSec) and the warm-up every later run profits from. Its
// second run comes last, so the bar a challenger has to clear was set under
// conditions at least as warm as the challenger's own. Conversion time and the
// two payoff rates are measured as a side effect. A contender whose kernel is
// unbound or whose conversion the fill guard rejects drops out; the incumbent
// cannot. A contender that does not convert because the layout is another
// pattern's ends the attempt: the features the contenders came from are that
// pattern's too. A selection counts in Stats, and as agreed when its winner is
// the ruleset's best guess.
func (tn *tuning[T]) measure() (*choice[T], error) {
	t, d := tn.t, tn.d
	d.UsedFallback = true
	start := time.Now()
	defer func() { d.FallbackSec = time.Since(start).Seconds() }()

	ft := &d.Features
	maxFill := min(fallbackMaxFill, t.model.MaxFill)
	var built []*choice[T]
	for _, f := range t.contenders(ft, maxFill) {
		e, timing, err := tn.candidate(f, maxFill)
		if foreign(err) {
			return nil, err
		}
		if err == nil {
			built = append(built, &choice[T]{format: f, eng: e, convert: timing})
		}
	}

	x, y := tn.vectors()
	run := func(c *choice[T]) float64 {
		start := time.Now()
		c.eng.kernel.RunPooled(c.eng.mat, x, y, t.pool)
		return time.Since(start).Seconds()
	}
	secs := make([]float64, len(built))
	d.CSRSpMVSec = run(built[0])
	for i, c := range built[1:] {
		secs[i+1] = min(run(c), run(c))
	}
	secs[0] = min(d.CSRSpMVSec, run(built[0]))

	flops := kernels.FLOPs(tn.m.NNZ())
	d.Measured = make(map[matrix.Format]float64, len(built))
	for i, c := range built {
		c.spmvSec = secs[i]
		d.Measured[c.format] = GFLOPS(flops, secs[i])
	}
	best := built[pickMeasured(secs)]
	best.incumbentSec = secs[0]
	t.fallbacks.Add(1)
	if guess, _ := t.bestGuess(ft); guess == best.format {
		t.fallbackAgreed.Add(1)
	}
	return best, nil
}

// candidate builds one format for the measuring selector. Its CSR candidate
// is the call's incumbent, so a call binds one CSR engine.
func (tn *tuning[T]) candidate(f matrix.Format, maxFill float64) (*engine[T], kernels.ConvertTiming, error) {
	if f == matrix.FormatCSR {
		return tn.incumbent(), kernels.ConvertTiming{Format: f, Stored: tn.m.Stored()}, nil
	}
	return tn.build(f, maxFill)
}

// build is the tuner's build from the call's record, whose diagonals the
// record keeps once a DIA conversion has tallied them (learn).
func (tn *tuning[T]) build(f matrix.Format, maxFill float64) (*engine[T], kernels.ConvertTiming, error) {
	e, timing, err := tn.t.build(tn.m, &tn.rec.layout, f, maxFill)
	if err == nil {
		tn.rec, err = tn.t.learn(tn.key, tn.m, tn.rec, tn.base.StructureHit, e.mat)
	}
	if err != nil {
		return nil, timing, err
	}
	return e, timing, nil
}

// outcome is the payoff stage's verdict on a choice.
type outcome int

const (
	// serveChosen: the operator serves the chosen format, converted before
	// TuneOpts returns.
	serveChosen outcome = iota
	// serveIncumbent: the iteration hint cannot pay for the conversion; the
	// operator serves tuned CSR and nothing is converted.
	serveIncumbent
)

// payoff weighs a choice whose conversion pays off from breakEven SpMVs on
// against the caller's iteration hint. Without one, or with nothing to
// convert, or at or above break-even, the choice is served; below break-even
// tuned CSR serves instead.
func payoff(f matrix.Format, breakEven, iterations int) outcome {
	if iterations > 0 && f != matrix.FormatCSR && iterations < breakEven {
		return serveIncumbent
	}
	return serveChosen
}

// bind resolves everything about an engine but its matrix: this tuner's
// kernel for the format and the format's tiled SpMM kernel. It fails for a
// format with no bound kernel or no batched kernel; neither happens for the
// four formats a tuner selects from.
func (t *Tuner[T]) bind(f matrix.Format) (*engine[T], error) {
	k, b := t.kernelFor(f), t.lib.BatchFor(f)
	if k == nil || b == nil {
		return nil, fmt.Errorf("autotune: no kernel registered for format %v", f)
	}
	return &engine[T]{kernel: k, batch: b}, nil
}

// build is the one materialise-and-bind site: every engine — a selector's
// candidate, a cache hit's format, the tuned-CSR incumbent, a deferred
// conversion — is the matrix converted under the given fill limit, from the
// call's layout on the tuner's pool, bound by bind. A DIA conversion from a
// layout that lists no diagonals tallies them first (Stats().DiagonalTallies).
// It fails when the tuner serves no kernel for the format, the format's
// zero-fill guard rejects this particular matrix, or the layout is not this
// matrix's (matrix.ErrStructureMismatch: only a remembered one can be).
func (t *Tuner[T]) build(m *matrix.CSR[T], lay *matrix.Layout, f matrix.Format, maxFill float64) (*engine[T], kernels.ConvertTiming, error) {
	e, err := t.bind(f)
	if err != nil {
		return nil, kernels.ConvertTiming{}, err
	}
	if f == matrix.FormatDIA && lay.DiagOffsets == nil {
		t.tallies.Add(1)
	}
	mat, timing, err := kernels.ConvertTimed(m, lay, f, maxFill, t.pool)
	if err != nil {
		return nil, timing, err
	}
	e.mat = mat
	return e, timing, nil
}

// materialise is the build stage for a choice no selector has built yet.
func (tn *tuning[T]) materialise(c *choice[T]) (err error) {
	c.eng, c.convert, err = tn.build(c.format, tn.t.model.MaxFill)
	return err
}

// incumbent returns the call's tuned-CSR engine: the zero-conversion-cost
// default of the payoff model, the input wrapped as-is with the tuner's CSR
// kernel. The incumbent rate is timed on it (and the baseline on its matrix),
// it is the measuring selector's first contender, and below break-even it is
// what the operator serves.
func (tn *tuning[T]) incumbent() *engine[T] {
	if tn.inc == nil {
		// Cannot fail: every tuner binds a CSR kernel and CSR wraps the input.
		tn.inc, _, _ = tn.t.build(tn.m, &tn.rec.layout, matrix.FormatCSR, tn.t.model.MaxFill)
	}
	return tn.inc
}

// vectors returns the call's one probe workspace: an all-ones x and its y.
func (tn *tuning[T]) vectors() (x, y []T) {
	if tn.x == nil {
		tn.x = make([]T, tn.m.Cols)
		for i := range tn.x {
			tn.x[i] = 1
		}
		tn.y = make([]T, tn.m.Rows)
	}
	return tn.x, tn.y
}

// baseline fills Decision.CSRSpMVSec — the paper's overhead unit — with the
// cost of one basic CSR SpMV, measured once per call with a single run. It is
// the yardstick of the rate probes' budget, so only that stage runs it — and
// not after the measuring selector, whose incumbent's first run is the unit
// already.
func (tn *tuning[T]) baseline() {
	if tn.d.CSRSpMVSec > 0 {
		return
	}
	x, y := tn.vectors()
	mat := tn.incumbent().mat
	basic := tn.t.lib.Basic(matrix.FormatCSR)
	start := time.Now()
	basic.Run(mat, x, y, 1)
	tn.d.CSRSpMVSec = time.Since(start).Seconds()
}

// probeBudget calibrates a measurement budget against this matrix's own
// basic CSR-SpMV time (once known): a few CSR-SpMV executions per timing,
// never less than 10µs, so probes on small matrices stay near the paper's
// overhead envelope instead of burning the full default MinTime.
func (t *Tuner[T]) probeBudget(csrSpMVSec float64) MeasureOptions {
	measure := t.measure
	if budget := time.Duration(3 * csrSpMVSec * float64(time.Second)); budget > 0 && budget < measure.MinTime {
		if budget < 10*time.Microsecond {
			budget = 10 * time.Microsecond
		}
		measure.MinTime = budget
	}
	return measure
}

// rates is the leader's probe stage: it fills the payoff model of a built
// non-CSR choice with the chosen format's per-SpMV rate, the tuned-CSR
// incumbent's, and the break-even iteration count they imply together with
// the conversion time build measured. Rates the measuring selector already
// timed are reused; the rest run as bounded probes on the steady-state pooled
// path, on the call's one workspace.
func (tn *tuning[T]) rates(c *choice[T]) {
	t := tn.t
	start := time.Now()
	defer func() { tn.d.AmortProbeSec = time.Since(start).Seconds() }()

	tn.baseline()
	budget := t.probeBudget(tn.d.CSRSpMVSec)
	x, y := tn.vectors()
	if c.spmvSec <= 0 {
		e := c.eng
		c.spmvSec = MeasureSecPerOp(func() { e.kernel.RunPooled(e.mat, x, y, t.pool) }, budget)
	}
	if c.incumbentSec <= 0 {
		inc := tn.incumbent()
		c.incumbentSec = MeasureSecPerOp(func() { inc.kernel.RunPooled(inc.mat, x, y, t.pool) }, budget)
	}
	c.breakEven = BreakEven(c.convert.Sec, c.incumbentSec, c.spmvSec)
}

// entry is the cache's view of a leader's choice: the asymptotic decision
// plus whatever payoff measurements the leader took. Amortisation against a
// hint is recomputed per hit. A measured winner is ground truth: confidence
// 1.
func (tn *tuning[T]) entry(c *choice[T]) CacheEntry {
	entry := CacheEntry{
		Format:       c.format,
		Confidence:   c.confidence,
		ConvertSec:   c.convert.Sec,
		SpMVSec:      c.spmvSec,
		IncumbentSec: c.incumbentSec,
		ConvertView:  c.format == matrix.FormatELL && c.convert.Stored == tn.m.NNZ(),
	}
	if tn.d.UsedFallback {
		entry.Confidence = 1
	}
	return entry
}

// serve is the shared tail of every path: weigh the choice (payoff), build
// whatever is served and not built yet — tuned CSR in place of a deferred
// choice — record the decision, set the operator's engine. It fails only on a
// cache hit whose format does not fit this matrix or this tuner — a
// fingerprint collision — or on a remembered layout that is another
// pattern's, and then the operator gets no engine.
func (tn *tuning[T]) serve(c *choice[T]) error {
	out := payoff(c.format, c.breakEven, tn.opts.Iterations)
	e := c.eng
	switch {
	case out == serveIncumbent:
		e = tn.incumbent()
	case c.deferred:
		e, tn.later = tn.incumbent(), tn.deferral(c)
	case e == nil:
		if err := tn.materialise(c); err != nil {
			return err
		}
		e = c.eng
	}
	tn.record(c, out, e)
	tn.op.eng = e
	return nil
}

// record is the last stage and the only writer of the decision's provenance,
// choice and payoff fields: what was selected and how (c), what the payoff
// stage made of it (out), and the engine the operator serves.
func (tn *tuning[T]) record(c *choice[T], out outcome, e *engine[T]) {
	d := tn.d
	if c.predicted {
		d.Predicted, d.PredictedOK = c.format, true
	}
	d.Confidence = c.confidence
	d.CacheHit = c.cacheHit

	d.Asymptotic = c.format
	d.BreakEvenIters = c.breakEven
	d.ChosenSpMVSec, d.IncumbentSec = c.spmvSec, c.incumbentSec
	d.Amortized = out == serveIncumbent
	d.ConvertSec, d.ConvertStored = c.convert.Sec, c.convert.Stored

	d.Chosen = e.kernel.Format
	d.Kernel = e.kernel.Name
}
