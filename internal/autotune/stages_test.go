package autotune

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// TestPayoffOutcomes pins the payoff stage over its whole input space:
// iteration hint none / below / at / above a break-even of 10, a CSR or a
// non-CSR choice.
func TestPayoffOutcomes(t *testing.T) {
	const breakEven = 10
	for _, iters := range []int{0, breakEven - 1, breakEven, breakEven + 1} {
		for _, f := range []matrix.Format{matrix.FormatCSR, matrix.FormatDIA} {
			want := serveChosen // asymptotic, nothing to convert, or at/above break-even
			if iters > 0 && f != matrix.FormatCSR && iters < breakEven {
				want = serveIncumbent
			}
			if got := payoff(f, breakEven, iters); got != want {
				t.Errorf("payoff(%v, break-even %d, iterations %d) = %d, want %d", f, breakEven, iters, got, want)
			}
		}
	}
	// A choice that never amortises serves tuned CSR at any hint; one whose
	// rates were never probed (break-even 0: an empty matrix) is served as is.
	if got := payoff(matrix.FormatDIA, NeverAmortize, 1<<20); got != serveIncumbent {
		t.Errorf("never-amortising choice: outcome %d, want the incumbent", got)
	}
	if got := payoff(matrix.FormatDIA, 0, 1); got != serveChosen {
		t.Errorf("unprobed choice: outcome %d, want the choice", got)
	}
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// conversionBytes returns the heap bytes converting m to each of the formats
// once, from its scan s, allocates.
func conversionBytes(t *testing.T, m *matrix.CSR[float64], s *matrix.Structure, maxFill float64, formats ...matrix.Format) uint64 {
	t.Helper()
	return allocated(func() {
		for _, f := range formats {
			if _, err := kernels.ConvertFrom(m, &s.Layout, f, maxFill, kernels.Params{}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestProbeWorkspaceBudget is the allocation budget of a tune, in
// vector-lengths (one []float64 of the matrix dimension), beyond feature
// extraction and the conversions it performs from the extracted structure. A
// tune that measures — the execute-and-measure selector, the payoff rates
// under an iteration hint — allocates the one probe workspace, an x and a y,
// and nothing else of vector size. A predicted leader runs no kernel and
// allocates none, like a cache hit.
func TestProbeWorkspaceBudget(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("allocation accounting is not stable under -race")
	}
	const n = 100_000
	m := gen.MultiDiagonal[float64](n, []int{-1, 0, 1}, rand.New(rand.NewSource(31)))
	const vectorLength = n * 8
	s := matrix.Scan(m)

	converting := func(maxFill float64, formats ...matrix.Format) uint64 {
		return conversionBytes(t, m, s, maxFill, formats...)
	}
	extracting := allocated(func() { features.Extract(m) })
	// A measuring leader converts its challengers: every contender but the
	// tuned-CSR incumbent at their head.
	ft := features.FromStructure(s)
	challengers := func(model *Model) []matrix.Format {
		tuner := New[float64](model, Config{Threads: 2})
		defer tuner.Close()
		return tuner.contenders(&ft, fallbackMaxFill)[1:]
	}
	oneGroup, noOpinion := modelAlways(matrix.FormatDIA, 0.30), modelRules()
	if got := challengers(oneGroup); len(got) != 1 || got[0] != matrix.FormatDIA {
		t.Fatalf("one sub-threshold DIA group leaves %v open beside CSR, want DIA alone", got)
	}

	for _, c := range []struct {
		name      string
		model     *Model
		opts      TuneOptions
		converted uint64 // bytes of the conversions the leader performs
		workspace int    // vector-lengths of probe workspace the leader needs
	}{
		{"predicted-CSR", modelAlways(matrix.FormatCSR, 0.99), TuneOptions{}, 0, 0},
		{"predicted-DIA", modelAlways(matrix.FormatDIA, 0.99), TuneOptions{}, converting(DefaultMaxFill, matrix.FormatDIA), 0},
		{"hinted-format-ELL", modelAlways(matrix.FormatDIA, 0.99), TuneOptions{FormatHint: matrix.FormatELL, HasFormatHint: true}, converting(DefaultMaxFill, matrix.FormatELL), 0},
		{"predicted-DIA-hinted", modelAlways(matrix.FormatDIA, 0.99), TuneOptions{Iterations: 1 << 20}, converting(DefaultMaxFill, matrix.FormatDIA), 2},
		{"measured-no-opinion", noOpinion, TuneOptions{}, converting(fallbackMaxFill, challengers(noOpinion)...), 2},
		{"measured-one-group", oneGroup, TuneOptions{}, converting(fallbackMaxFill, matrix.FormatDIA), 2},
	} {
		tuner := New[float64](c.model, Config{Threads: 2})
		var d *Decision
		tune := func() {
			var err error
			if _, d, err = tuner.TuneOpts(m, c.opts); err != nil {
				t.Fatal(err)
			}
		}
		vectors := func(total, conversions uint64) float64 {
			return (float64(total) - float64(extracting) - float64(conversions)) / vectorLength
		}

		lead := vectors(allocated(tune), c.converted)
		if d.CacheHit || (d.CSRSpMVSec > 0) != (c.workspace > 0) {
			t.Fatalf("%s: first tune did not lead, or measured a baseline it has no use for (or none where it has): %+v", c.name, d)
		}
		if lead < float64(c.workspace) || lead >= float64(c.workspace)+1 {
			t.Errorf("%s: leader allocated %.2f vector-lengths beyond extraction and conversion, want %d",
				c.name, lead, c.workspace)
		}
		if c.opts.HasFormatHint {
			tuner.Close()
			continue // a format hint bypasses the cache
		}

		// The hit converts the leader's winner and allocates no workspace.
		winner := d.Chosen
		hit := vectors(allocated(tune), converting(DefaultMaxFill, winner))
		if !d.CacheHit || d.Chosen != winner {
			t.Fatalf("%s: second tune did not hit the leader's entry: %+v", c.name, d)
		}
		if hit >= 1 {
			t.Errorf("%s: cache hit allocated %.2f vector-lengths beyond extraction and conversion, want none", c.name, hit)
		}
		tuner.Close()
	}
}

// TestPredictedLeaderRunsNoKernel counts what a tune executes: a confident
// prediction, a format hint and a cache hit run no kernel before the caller's
// own multiply — the probe workspace is never allocated, no baseline is
// recorded, and a library that counts every kernel execution (the baseline's
// serial Run included, which the pool counters cannot see) counts none. The
// caller's first MulVec is the first run. The two paths that spend the
// baseline still measure it.
func TestPredictedLeaderRunsNoKernel(t *testing.T) {
	m := gen.MultiDiagonal[float64](3000, []int{-1, 0, 1}, rand.New(rand.NewSource(33)))
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)

	counting := func(model *Model) (*Tuner[float64], *atomic.Int64) {
		tuner := New[float64](model, Config{Threads: 2})
		runs := new(atomic.Int64)
		tuner.lib = tuner.lib.Observed(func() { runs.Add(1) })
		tuner.bound = resolveKernels(tuner.class, tuner.lib)
		return tuner, runs
	}
	tune := func(tuner *Tuner[float64], opts TuneOptions) *tuning[float64] {
		tn := tuner.extract(m, opts)
		if err := tn.run(); err != nil {
			t.Fatal(err)
		}
		return tn
	}

	for _, c := range []struct {
		name     string
		opts     TuneOptions
		cacheHit bool
	}{
		{name: "confident"},
		{name: "format hint", opts: TuneOptions{FormatHint: matrix.FormatELL, HasFormatHint: true}},
		{name: "cache hit", cacheHit: true},
	} {
		tuner, runs := counting(modelAlways(matrix.FormatDIA, 0.99))
		if c.cacheHit {
			tune(tuner, TuneOptions{}) // the leader whose entry the call under test hits
		}
		tn := tune(tuner, c.opts)
		if tn.d.CacheHit != c.cacheHit || tn.d.UsedFallback {
			t.Fatalf("%s: took another path: %+v", c.name, tn.d)
		}
		if tn.x != nil || tn.y != nil || tn.d.CSRSpMVSec != 0 || tn.d.Overhead() != 0 {
			t.Errorf("%s: probe workspace allocated: %v, baseline %gs; want neither", c.name, tn.x != nil, tn.d.CSRSpMVSec)
		}
		if got := runs.Load(); got != 0 {
			t.Errorf("%s: %d kernel runs before the caller's own, want 0", c.name, got)
		}
		tn.op.MulVec(x, y)
		if got := runs.Load(); got != 1 {
			t.Errorf("%s: %d kernel runs after the first MulVec, want 1", c.name, got)
		}
		tuner.Close()
	}

	for _, c := range []struct {
		name string
		conf float64
		opts TuneOptions
	}{
		{"fallback", 0.30, TuneOptions{}},
		{"iteration hint", 0.99, TuneOptions{Iterations: 1 << 20}},
	} {
		tuner, runs := counting(modelAlways(matrix.FormatDIA, c.conf))
		tn := tune(tuner, c.opts)
		if tn.x == nil || tn.d.CSRSpMVSec <= 0 || tn.d.Overhead() <= 0 || runs.Load() == 0 {
			t.Errorf("%s: workspace %v, baseline %gs, overhead %g, %d kernel runs; want a measured baseline",
				c.name, tn.x != nil, tn.d.CSRSpMVSec, tn.d.Overhead(), runs.Load())
		}
		tuner.Close()
	}
}

// TestFallbackBindsOneCSREngine: the measuring selector's CSR candidate is
// the call's incumbent — with every other format's kernel unbound CSR wins,
// on that engine.
func TestFallbackBindsOneCSREngine(t *testing.T) {
	m := gen.RandomUniform[float64](2000, 2000, 5, rand.New(rand.NewSource(34)))
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.30), Config{Threads: 2, CacheSize: -1})
	defer tuner.Close()
	tuner.bound = map[matrix.Format]*kernels.Kernel[float64]{matrix.FormatCSR: tuner.bound[matrix.FormatCSR]}
	tn := tuner.extract(m, TuneOptions{})
	tn.begin()
	c, err := tn.measure()
	if err != nil {
		t.Fatal(err)
	}
	if c.format != matrix.FormatCSR || len(tn.d.Measured) != 1 {
		t.Fatalf("fallback chose %v from %v, want CSR alone", c.format, tn.d.Measured)
	}
	if c.eng != tn.inc || c.eng.mat.CSR != m {
		t.Error("CSR won the fallback on a second CSR engine, want the incumbent wrapping the input")
	}
}

// TestFallbackContenders pins the measuring selector's candidate list over
// features × ruleset: tuned CSR first, then the feasible formats whose rule
// group matched at any confidence, and every feasible format only when no
// group matched at all.
func TestFallbackContenders(t *testing.T) {
	const (
		csr, coo, dia, ell = matrix.FormatCSR, matrix.FormatCOO, matrix.FormatDIA, matrix.FormatELL
		erDIA              = 8 // features.AttributeNames index of ER_DIA
	)
	rule := func(f matrix.Format, conf float64, conds ...mining.Condition) mining.Rule {
		return mining.Rule{Class: int(f), Confidence: conf, Conds: conds}
	}
	dense := features.Features{ERDIA: 0.9, ERELL: 0.8}             // everything fits
	gappy := features.Features{ERDIA: 0.2, ERELL: 0.8}             // DIA pads 5× > fallbackMaxFill
	ragged := features.Features{ERDIA: 1.0 / 400, ERELL: 1.0 / 30} // neither padded format fits
	// sparseDIA matches gappy and ragged, not dense.
	sparseDIA := mining.Condition{Attr: erDIA, Op: mining.OpLE, Threshold: 0.5}
	for _, c := range []struct {
		name  string
		ft    features.Features
		rules []mining.Rule
		want  []matrix.Format
	}{
		{"no rules: every feasible format", dense, nil, []matrix.Format{csr, dia, ell, coo}},
		{"no rules: the fill guard still applies", gappy, nil, []matrix.Format{csr, ell, coo}},
		{"no rules, nothing padded fits", ragged, nil, []matrix.Format{csr, coo}},
		{"rules that do not match are no opinion", dense, []mining.Rule{rule(coo, 0.9, sparseDIA)}, []matrix.Format{csr, dia, ell, coo}},
		{"one sub-threshold group", dense, []mining.Rule{rule(coo, 0.82)}, []matrix.Format{csr, coo}},
		{"one group through a matching condition", gappy, []mining.Rule{rule(coo, 0.82, sparseDIA)}, []matrix.Format{csr, coo}},
		{"two groups, listed in evaluation order", dense, []mining.Rule{rule(coo, 0.4), rule(dia, 0.6)}, []matrix.Format{csr, dia, coo}},
		{"a matched group the fill guard rejects", gappy, []mining.Rule{rule(dia, 0.6), rule(coo, 0.4)}, []matrix.Format{csr, coo}},
		{"only an infeasible group: the incumbent alone", gappy, []mining.Rule{rule(dia, 0.99)}, []matrix.Format{csr}},
		{"only the CSR group", dense, []mining.Rule{rule(csr, 0.5)}, []matrix.Format{csr}},
		{"a confident group whose conversion failed is still a contender", dense, []mining.Rule{rule(ell, 0.99)}, []matrix.Format{csr, ell}},
	} {
		tuner := New[float64](modelRules(c.rules...), Config{Threads: 1, CacheSize: -1})
		if got := tuner.contenders(&c.ft, fallbackMaxFill); !slices.Equal(got, c.want) {
			t.Errorf("%s: contenders %v, want %v", c.name, got, c.want)
		}
		tuner.Close()
	}
}

// TestPickMeasured pins the measuring selector's verdict: the incumbent keeps
// a tie and any gain inside the margin, a clear win goes to the fastest
// challenger, and a challenger is held to the incumbent's bar only — never to
// a margin over another challenger.
func TestPickMeasured(t *testing.T) {
	edge := 1 / (1 + fallbackMargin) // the bar for an incumbent at 1.0
	for _, c := range []struct {
		name string
		secs []float64
		want int
	}{
		{"incumbent alone", []float64{1}, 0},
		{"tie", []float64{1, 1}, 0},
		{"slower challenger", []float64{1, 1.5}, 0},
		{"gain inside the margin", []float64{1, edge * 1.001}, 0},
		{"gain exactly the margin", []float64{1, edge}, 0},
		{"clear win", []float64{1, edge * 0.999}, 1},
		{"fastest of two winners", []float64{1, 0.8, 0.5}, 2},
		{"second winner ahead by less than the margin", []float64{1, 0.80, 0.79}, 2},
		{"first winner stays ahead of a slower one", []float64{1, 0.79, 0.80}, 1},
		{"a challenger inside the margin does not raise the bar", []float64{1, 0.99, 0.96}, 2},
		{"unresolved timings", []float64{0, 0}, 0},
	} {
		if got := pickMeasured(c.secs); got != c.want {
			t.Errorf("%s: pickMeasured(%v) = %d, want %d", c.name, c.secs, got, c.want)
		}
	}
}

// TestFallbackRunsTwoPerContender counts what the measuring selector executes
// and allocates: two runs of each contender's bound kernel and no other — no
// basic-CSR baseline through the library — one conversion per challenger, and
// the one probe workspace. The CSR-SpMV unit is the incumbent's first run.
func TestFallbackRunsTwoPerContender(t *testing.T) {
	const n = 20_000
	m := gen.MultiDiagonal[float64](n, []int{-1, 0, 1}, rand.New(rand.NewSource(36)))
	s := matrix.Scan(m)
	for _, c := range []struct {
		name  string
		model *Model
		want  []matrix.Format
	}{
		{"one sub-threshold group", modelAlways(matrix.FormatDIA, 0.30), []matrix.Format{matrix.FormatCSR, matrix.FormatDIA}},
		{"no opinion", modelRules(), []matrix.Format{matrix.FormatCSR, matrix.FormatDIA, matrix.FormatELL, matrix.FormatCOO}},
	} {
		tuner := New[float64](c.model, Config{Threads: 2, CacheSize: -1})
		// The bound kernels and the library's own (a baseline's route to
		// csr_basic) count separately.
		var bound, unbound atomic.Int64
		tuner.bound = resolveKernels(tuner.class, tuner.lib.Observed(func() { bound.Add(1) }))
		tuner.lib = tuner.lib.Observed(func() { unbound.Add(1) })

		tn := tuner.extract(m, TuneOptions{})
		tn.begin()
		if got := tuner.contenders(&tn.d.Features, fallbackMaxFill); !slices.Equal(got, c.want) {
			t.Fatalf("%s: contenders %v, want %v", c.name, got, c.want)
		}
		var picked *choice[float64]
		total := allocated(func() { picked, _ = tn.measure() })
		d := tn.d

		if got := bound.Load(); got != int64(2*len(c.want)) {
			t.Errorf("%s: %d runs of bound kernels, want 2 per contender = %d", c.name, got, 2*len(c.want))
		}
		if got := unbound.Load(); got != 0 {
			t.Errorf("%s: %d kernel runs outside the contenders' (a csr_basic baseline?), want 0", c.name, got)
		}
		if len(d.Measured) != len(c.want) {
			t.Errorf("%s: measured %v, want exactly %v", c.name, d.Measured, c.want)
		}
		for _, f := range c.want {
			if d.Measured[f] <= 0 {
				t.Errorf("%s: contender %v has no measured rate in %v", c.name, f, d.Measured)
			}
		}
		if picked.incumbentSec <= 0 || d.CSRSpMVSec < picked.incumbentSec {
			t.Errorf("%s: unit %gs against an incumbent best of %gs; want the incumbent's first run, no faster than its best",
				c.name, d.CSRSpMVSec, picked.incumbentSec)
		}
		if !raceEnabledAutotune { // allocation accounting is not stable under -race
			extra := (float64(total) - float64(conversionBytes(t, m, s, fallbackMaxFill, c.want[1:]...))) / (n * 8)
			if extra < 2 || extra >= 3 {
				t.Errorf("%s: selector allocated %.2f vector-lengths beyond one conversion per challenger, want the workspace's 2", c.name, extra)
			}
		}
		tuner.Close()
	}
}

// TestCOOEngineAliasesInput: a COO engine is a view of the caller's matrix —
// its column indices and values are the input's own arrays, as the CSR
// engine's are; only the row indices are the engine's — whether a leader or a
// hinted cache hit converted it.
func TestCOOEngineAliasesInput(t *testing.T) {
	m := gen.RandomUniform[float64](500, 500, 6, rand.New(rand.NewSource(35)))
	check := func(label string, op *Operator[float64]) {
		t.Helper()
		coo := op.eng.mat.COO
		if coo == nil {
			t.Fatalf("%s: operator serves %v, want COO", label, op.Format())
		}
		if &coo.Vals[0] != &m.Vals[0] || &coo.ColIdx[0] != &m.ColIdx[0] {
			t.Errorf("%s: COO engine copied the input's values or column indices", label)
		}
		if len(coo.RowIdx) != m.NNZ() || &coo.RowIdx[0] == &m.RowPtr[0] || &coo.RowIdx[0] == &m.ColIdx[0] {
			t.Errorf("%s: COO engine's row indices are not its own", label)
		}
		checkAgainstDense(t, op, m)
	}

	tuner := New[float64](modelAlways(matrix.FormatCOO, 0.99), Config{Threads: 2})
	defer tuner.Close()
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	check("leader", op)

	// A costed entry past break-even: the hit converts.
	tuner.Cache().Put(m2key(tuner, m), costedEntry(matrix.FormatCOO))
	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit {
		t.Fatalf("decision %+v, want a cache hit", d)
	}
	check("hinted hit", op)
}

// TestLeaderDecisionOwnsItsSeconds: each Decision second is written by one
// stage, so on a leader they are present exactly when their stage ran — and a
// stage runs only when the call consumes its answer: the baseline only under
// the measuring selector or the payoff rates, the payoff rates only under an
// iteration hint.
func TestLeaderDecisionOwnsItsSeconds(t *testing.T) {
	m := gen.MultiDiagonal[float64](3000, []int{-1, 0, 1}, rand.New(rand.NewSource(32)))
	for _, c := range []struct {
		conf              float64
		iterations        int
		hint              bool
		fallback, weighed bool
	}{
		{conf: 0.99},
		{conf: 0.99, iterations: 1 << 20, weighed: true},
		{conf: 0.30, fallback: true},
		{conf: 0.30, iterations: 1 << 20, fallback: true, weighed: true},
		{conf: 0.99, hint: true},
		{conf: 0.99, iterations: 1 << 20, hint: true},
	} {
		tuner := New[float64](modelAlways(matrix.FormatDIA, c.conf), Config{Threads: 2, CacheSize: -1})
		_, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: c.iterations, FormatHint: matrix.FormatDIA, HasFormatHint: c.hint})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("conf %.2f iterations %d hint %v", c.conf, c.iterations, c.hint)
		if d.FeatureSec <= 0 {
			t.Errorf("%s: extract seconds %g, want positive", label, d.FeatureSec)
		}
		if (d.FallbackSec > 0) != c.fallback {
			t.Errorf("%s: FallbackSec %g, fallback ran: %v", label, d.FallbackSec, c.fallback)
		}
		weighed := c.weighed && d.Asymptotic != matrix.FormatCSR
		if (d.AmortProbeSec > 0) != weighed || (d.BreakEvenIters > 0) != weighed {
			t.Errorf("%s: AmortProbeSec %g break-even %d on an asymptotic %v, weighed: %v", label, d.AmortProbeSec, d.BreakEvenIters, d.Asymptotic, c.weighed)
		}
		if measured := c.fallback || weighed; (d.CSRSpMVSec > 0) != measured || (d.Overhead() > 0) != measured {
			t.Errorf("%s: baseline %gs, overhead %g; a baseline was spent: %v", label, d.CSRSpMVSec, d.Overhead(), measured)
		}
		tuner.Close()
	}
}
