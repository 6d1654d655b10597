package autotune

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// TestBreakEvenArithmetic pins the payoff inequality
// convertSec + k·chosenSec ≤ k·incumbentSec at the exact boundary.
func TestBreakEvenArithmetic(t *testing.T) {
	// gain = 0.2 - 0.1 = 0.1 per SpMV, convert = 1.0 → break-even at k = 10.
	be := BreakEven(1.0, 0.2, 0.1)
	if be != 10 {
		t.Fatalf("BreakEven(1.0, 0.2, 0.1) = %d, want 10", be)
	}
	cases := []struct {
		k       int
		convert bool // should k iterations justify converting?
	}{
		{1, false},
		{be - 1, false},
		{be, true},
		{1e9, true},
	}
	for _, c := range cases {
		if got := c.k >= be; got != c.convert {
			t.Errorf("k=%d: convert=%v, want %v", c.k, got, c.convert)
		}
	}

	// A conversion that is free still needs one iteration to matter.
	if got := BreakEven(0, 0.2, 0.1); got != 1 {
		t.Errorf("free conversion: break-even %d, want 1", got)
	}
	// No gain, or missing measurements: never convert.
	for _, args := range [][3]float64{
		{1, 0.1, 0.1},  // no gain
		{1, 0.1, 0.2},  // chosen slower
		{1, 0, 0.1},    // incumbent unmeasured
		{1, 0.1, 0},    // chosen unmeasured
		{1e30, 1, 0.5}, // astronomically expensive conversion
	} {
		if got := BreakEven(args[0], args[1], args[2]); got != NeverAmortize {
			t.Errorf("BreakEven(%v) = %d, want NeverAmortize", args, got)
		}
	}
}

func TestTuneOptsRejectsNegativeIterations(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m := gen.RandomUniform[float64](50, 50, 3, rand.New(rand.NewSource(21)))
	if _, _, err := tuner.TuneOpts(m, TuneOptions{Iterations: -1}); err == nil {
		t.Fatal("negative iteration hint accepted")
	}
}

// TestTuneOptsRejectsUnservedFormatHint: a format hint outside matrix.Formats
// is an error before the matrix is read, with no Decision — not a scan that
// then fails to bind a kernel.
func TestTuneOptsRejectsUnservedFormatHint(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m := gen.RandomUniform[float64](50, 50, 3, rand.New(rand.NewSource(21)))
	for _, f := range []matrix.Format{-1, 4, 99} {
		op, d, err := tuner.TuneOpts(m, TuneOptions{FormatHint: f, HasFormatHint: true})
		if err == nil || op != nil || d != nil {
			t.Errorf("hint %v: operator %v, decision %v, err %v; want an error and neither", f, op, d, err)
		}
	}
	if _, _, err := tuner.TuneOpts(m, TuneOptions{FormatHint: matrix.FormatELL, HasFormatHint: true}); err != nil {
		t.Errorf("served hint ELL rejected: %v", err)
	}
}

// intDiagonal builds a small-integer tri-diagonal matrix: every kernel sums
// the same small integers, so CSR and DIA engines agree bit-for-bit and a
// single dense reference checks either.
func intDiagonal(n int) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: float64(1 + i%7)})
		if i+1 < n {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i + 1, Val: float64(1 + i%5)})
			ts = append(ts, matrix.Triple[float64]{Row: i + 1, Col: i, Val: float64(1 + i%3)})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// seedAmortized plants a measured DIA decision with synthetic costs
// (break-even at k = 10) in the tuner's cache for m's fingerprint, so the
// amortisation paths run deterministically regardless of machine speed.
func seedAmortized[T matrix.Float](tuner *Tuner[T], m *matrix.CSR[T]) {
	tuner.cache.Put(m2key(tuner, m), CacheEntry{
		Format:       matrix.FormatDIA,
		Confidence:   1,
		ConvertSec:   1.0,
		SpMVSec:      0.1,
		IncumbentSec: 0.2,
	})
}

// m2key is the key t files m's decision under: of the features its extract
// stage settles for, the diagonal ones zero when the row pass decides m.
func m2key[T matrix.Float](t *Tuner[T], m *matrix.CSR[T]) features.Key {
	return t.extract(m, TuneOptions{}).base.Features.Key()
}

// TestAmortizedCacheHitBelowBreakEven: with too few iterations ahead, a
// cached non-CSR winner must not be converted at all — the operator serves
// tuned CSR and says so.
func TestAmortizedCacheHitBelowBreakEven(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	seedAmortized(tuner, m)

	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit {
		t.Fatal("seeded decision missed the cache")
	}
	if d.BreakEvenIters != 10 {
		t.Errorf("BreakEvenIters = %d, want 10", d.BreakEvenIters)
	}
	if !d.Amortized || d.Chosen != matrix.FormatCSR || d.Asymptotic != matrix.FormatDIA {
		t.Errorf("decision = %+v, want amortised CSR with DIA asymptotic", d)
	}
	if op.Format() != matrix.FormatCSR {
		t.Errorf("operator format = %v, want CSR", op.Format())
	}
	checkAgainstDense(t, op, m)
}

// checkHitConvertsInline tunes intDiagonal(300) under opts (a hint at or past
// break-even) on tuners of 1 and 4 threads, each seeded with a DIA entry whose
// break-even is 10. Each hinted cache hit must
// convert before TuneOpts returns: the operator already serves the chosen
// format, and the conversion is part of what the tune cost.
func checkHitConvertsInline(t *testing.T, opts TuneOptions) {
	t.Helper()
	for _, threads := range []int{1, 4} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: threads})
			defer tuner.Close()
			m := intDiagonal(300)
			seedAmortized(tuner, m)

			op, d, err := tuner.TuneOpts(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !d.CacheHit || d.Amortized || d.Chosen != matrix.FormatDIA || op.Format() != matrix.FormatDIA {
				t.Fatalf("decision %+v serving %v, want a DIA cache hit served as DIA", d, op.Format())
			}
			if d.ConvertSec <= 0 || d.TuneSec() < d.ConvertSec {
				t.Errorf("ConvertSec %g, TuneSec %g; want the call's own conversion, inside TuneSec", d.ConvertSec, d.TuneSec())
			}
			checkAgainstDense(t, op, m)
		})
	}
}

// TestAmortizedCacheHitSyncConvert: exactly at break-even, with the
// deprecated SyncConvert set, the hit converts inline — as every hinted hit
// past break-even does, with or without it.
func TestAmortizedCacheHitSyncConvert(t *testing.T) {
	checkHitConvertsInline(t, TuneOptions{Iterations: 10, SyncConvert: true})
}

// TestAmortizedCacheHitAsyncSwap: well past break-even without SyncConvert —
// the request that used to serve tuned CSR and swap in the converted engine
// from the background — the operator already serves DIA when TuneOpts
// returns. (The name is the deleted background swap's.)
func TestAmortizedCacheHitAsyncSwap(t *testing.T) {
	checkHitConvertsInline(t, TuneOptions{Iterations: 100})
}

// TestAmortizedCacheHitFollowsCPUCount: where a hit converts no longer
// follows the process's CPU count — inline on one CPU and with CPUs to spare
// alike.
func TestAmortizedCacheHitFollowsCPUCount(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			checkHitConvertsInline(t, TuneOptions{Iterations: 100})
		})
	}
}

// TestHintValidationRefreshesCostlessEntry: a cached non-CSR entry without
// amortisation measurements cannot answer an iteration-hinted request — it
// must be refreshed, not blindly applied.
func TestHintValidationRefreshesCostlessEntry(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	tuner.cache.Put(m2key(tuner, m), CacheEntry{Format: matrix.FormatDIA, Confidence: 1})

	// Without a hint the costless entry is a perfectly good cache hit.
	_, d0, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	if !d0.CacheHit {
		t.Fatal("hint-free lookup should hit the costless entry")
	}

	_, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if d.CacheHit {
		t.Fatal("costless entry served an iteration-hinted request")
	}
	if d.Asymptotic != matrix.FormatDIA {
		t.Errorf("refreshed asymptotic = %v, want DIA", d.Asymptotic)
	}
	if d.ChosenSpMVSec <= 0 || d.IncumbentSec <= 0 || d.ConvertSec <= 0 {
		t.Errorf("refresh did not measure amortisation rates: %+v", d)
	}
	if entry, ok := tuner.cache.Get(m2key(tuner, m)); !ok || entry.SpMVSec <= 0 || entry.IncumbentSec <= 0 {
		t.Errorf("refreshed entry lacks cost measurements: %+v", entry)
	}
}

// withoutLastEntry returns a copy of m whose row r is one entry short.
func withoutLastEntry(m *matrix.CSR[float64], r int) *matrix.CSR[float64] {
	cut := m.RowPtr[r+1] - 1
	out := &matrix.CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, len(m.RowPtr))}
	out.ColIdx = append(append(out.ColIdx, m.ColIdx[:cut]...), m.ColIdx[cut+1:]...)
	out.Vals = append(append(out.Vals, m.Vals[:cut]...), m.Vals[cut+1:]...)
	for i, p := range m.RowPtr {
		if i > r {
			p--
		}
		out.RowPtr[i] = p
	}
	return out
}

// TestRaggedHintedHitReleadsUniformView: a uniform ELL matrix converts to a
// view of its own arrays, so its leader caches a ≈ 0 s ConvertSec. A matrix
// one entry short in one row has the same features key but pads a copy: its
// hinted request must lead again, not report the view's break-even, while a
// uniform matrix still hits.
func TestRaggedHintedHitReleadsUniformView(t *testing.T) {
	uniform := gen.ConstantDegree[float64](3000, 8, rand.New(rand.NewSource(1)))
	ragged := withoutLastEntry(uniform, 0)
	hint := TuneOptions{Iterations: 1 << 20}
	newTuner := func(t *testing.T) *Tuner[float64] {
		tuner := New[float64](modelAlways(matrix.FormatELL, 0.99), Config{Threads: 2})
		if m2key(tuner, uniform) != m2key(tuner, ragged) {
			t.Fatal("the uniform and the ragged matrix must share one features key")
		}
		return tuner
	}

	t.Run("planted", func(t *testing.T) {
		tuner := newTuner(t)
		defer tuner.Close()
		// A view's cost: break-even at one SpMV.
		tuner.cache.Put(m2key(tuner, uniform), CacheEntry{
			Format: matrix.FormatELL, Confidence: 1,
			ConvertSec: 1e-9, SpMVSec: 0.1, IncumbentSec: 0.2, ConvertView: true,
		})
		_, d, err := tuner.TuneOpts(uniform, hint)
		if err != nil {
			t.Fatal(err)
		}
		if !d.CacheHit || d.BreakEvenIters != 1 {
			t.Errorf("uniform matrix: hit %v break-even %d, want a hit at the view's 1", d.CacheHit, d.BreakEvenIters)
		}
		op, d, err := tuner.TuneOpts(ragged, hint)
		if err != nil {
			t.Fatal(err)
		}
		if d.CacheHit {
			t.Errorf("ragged matrix took the view's cost: break-even %d", d.BreakEvenIters)
		}
		if d.Asymptotic != matrix.FormatELL || d.ConvertStored <= ragged.NNZ() {
			t.Errorf("ragged matrix chose %v storing %d slots, want ELL timed on its own padded copy", d.Asymptotic, d.ConvertStored)
		}
		checkAgainstDense(t, op, ragged)
	})

	t.Run("led", func(t *testing.T) {
		tuner := newTuner(t)
		defer tuner.Close()
		key := m2key(tuner, uniform)
		if _, d, err := tuner.TuneOpts(uniform, hint); err != nil || d.CacheHit || d.ConvertStored != uniform.NNZ() {
			t.Fatalf("uniform leader: err %v hit %v stored %d, want a view of its %d entries", err, d.CacheHit, d.ConvertStored, uniform.NNZ())
		}
		if e, _ := tuner.cache.Get(key); !e.ConvertView {
			t.Fatalf("uniform leader's entry %+v does not record its view", e)
		}
		if _, d, err := tuner.TuneOpts(ragged, hint); err != nil || d.CacheHit {
			t.Fatalf("ragged request after a view leader: err %v hit %v, want a new lead", err, d.CacheHit)
		}
		if e, _ := tuner.cache.Get(key); e.ConvertView {
			t.Errorf("ragged leader's entry %+v records a view", e)
		}
		// The ragged leader's copy cost overstates a view's; a uniform
		// matrix may take it.
		if _, d, err := tuner.TuneOpts(uniform, hint); err != nil || !d.CacheHit {
			t.Errorf("uniform request after a ragged leader: err %v hit %v, want a hit", err, d.CacheHit)
		}
	})
}

// TestUnhintedLeaderCachesNoRates: without an iteration hint nothing consumes
// the payoff rates, so a predicting leader does not measure them and caches
// its entry without. Hint-free requests hit that entry; the first hinted one
// finds it stale, leads again with the rate probe, and from then on hinted
// requests hit too.
func TestUnhintedLeaderCachesNoRates(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(2000)
	_, d, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := tuner.cache.Get(m2key(tuner, m))
	if d.AmortProbeSec != 0 || d.BreakEvenIters != 0 || !ok || entry.SpMVSec != 0 || entry.IncumbentSec != 0 {
		t.Fatalf("un-hinted leader probed rates: decision %+v, entry %+v", d, entry)
	}
	if _, d, err = tuner.Tune(m); err != nil || !d.CacheHit {
		t.Fatalf("hint-free request on the rate-less entry: hit %v, err %v", d.CacheHit, err)
	}
	for i, wantHit := range []bool{false, true} {
		_, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if d.CacheHit != wantHit || d.BreakEvenIters < 1 || (d.AmortProbeSec > 0) == wantHit {
			t.Errorf("hinted request %d: hit %v break-even %d rate probe %gs, want hit %v", i, d.CacheHit, d.BreakEvenIters, d.AmortProbeSec, wantHit)
		}
	}
	if st := tuner.Stats(); st.Refreshes != 1 {
		t.Errorf("%d refreshes, want the one hinted re-lead", st.Refreshes)
	}
}

// TestLeaderRecordsAmortization: a fresh (cache-miss) non-CSR decision must
// carry the payoff measurements, and an iteration hint of 1 must never leave
// the caller with a conversion that cannot pay off.
func TestLeaderRecordsAmortization(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(2000)
	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Asymptotic != matrix.FormatDIA {
		t.Fatalf("asymptotic = %v, want DIA", d.Asymptotic)
	}
	if d.ChosenSpMVSec <= 0 || d.IncumbentSec <= 0 {
		t.Errorf("leader did not record per-SpMV rates: %+v", d)
	}
	if d.BreakEvenIters < 1 {
		t.Errorf("BreakEvenIters = %d, want ≥ 1", d.BreakEvenIters)
	}
	// Whichever way the measurement went, the decision must be coherent:
	// convert only when one iteration reaches break-even.
	wantConvert := 1 >= d.BreakEvenIters
	if wantConvert && (d.Amortized || op.Format() != matrix.FormatDIA) {
		t.Errorf("k=1 ≥ break-even %d but operator amortised to %v", d.BreakEvenIters, op.Format())
	}
	if !wantConvert && (!d.Amortized || op.Format() != matrix.FormatCSR) {
		t.Errorf("k=1 < break-even %d but operator is %v (amortized=%v)",
			d.BreakEvenIters, op.Format(), d.Amortized)
	}
	checkAgainstDense(t, op, m)
}

// TestConcurrentFirstBatchProbesOncePerEngine: 8 goroutines make their first
// MulVecBatch calls together, at widths 3 and 8, on a fresh operator and on
// one a hinted cache hit converted. Nothing is probed on a first call any more
// (the name is the lazy crossover probe's, which this test used to count): the
// engine was bound to its own format's tiled kernel when it was built, and
// every product is exact.
func TestConcurrentFirstBatchProbesOncePerEngine(t *testing.T) {
	const goroutines = 8
	widths := [...]int{3, 8}
	m := intDiagonal(300)
	hammer := func(t *testing.T, op *Operator[float64]) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, goroutines)
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				k := widths[g%len(widths)]
				xb, want := batchOnesInput(m.Cols, k), denseBatchRef(m, k)
				yb := make([]float64, m.Rows*k)
				<-start
				for i := 0; i < 20; i++ {
					op.MulVecBatch(xb, yb, k)
					for j := range yb {
						if yb[j] != want[j] {
							errs[g] = errAt(g, i, j, yb[j], want[j])
							return
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	boundTo := func(t *testing.T, op *Operator[float64], f matrix.Format) {
		t.Helper()
		if e := op.eng; e.batch == nil || e.batch.Format != f || e.mat.Format != f {
			t.Errorf("engine serves %v with batch kernel %v, want %v's", e.mat.Format, e.batch, f)
		}
	}

	for _, c := range []struct {
		name string
		opts TuneOptions
	}{{"fresh", TuneOptions{}}, {"hinted-hit", TuneOptions{Iterations: 1 << 20}}} {
		t.Run(c.name, func(t *testing.T) {
			tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
			defer tuner.Close()
			if c.opts.Iterations > 0 {
				seedAmortized(tuner, m)
			}
			op, _, err := tuner.TuneOpts(m, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			boundTo(t, op, matrix.FormatDIA)
			hammer(t, op)
		})
	}
}

// checkAgainstDense verifies op against the dense reference; intDiagonal's
// small integers make every summation order exact, so equality is exact.
func checkAgainstDense(t *testing.T, op *Operator[float64], m *matrix.CSR[float64]) {
	t.Helper()
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%4 + 1)
	}
	got := make([]float64, m.Rows)
	want := make([]float64, m.Rows)
	op.MulVec(x, got)
	m.ToDense().MulVec(x, want)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %g, want %g", i, got[i], want[i])
		}
	}
}

// batchOnesInput builds an interleaved batch where RHS j is the vector with
// entries (c%4+1)+j, integer-valued for exact comparison.
func batchOnesInput(n, k int) []float64 {
	xb := make([]float64, n*k)
	for c := 0; c < n; c++ {
		for j := 0; j < k; j++ {
			xb[c*k+j] = float64(c%4 + 1 + j)
		}
	}
	return xb
}

// denseBatchRef computes the interleaved dense reference for batchOnesInput.
func denseBatchRef(m *matrix.CSR[float64], k int) []float64 {
	xb := batchOnesInput(m.Cols, k)
	yb := make([]float64, m.Rows*k)
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	dense := m.ToDense()
	for j := 0; j < k; j++ {
		for c := 0; c < m.Cols; c++ {
			x[c] = xb[c*k+j]
		}
		dense.MulVec(x, y)
		for r := 0; r < m.Rows; r++ {
			yb[r*k+j] = y[r]
		}
	}
	return yb
}

func errAt(g, i, j int, got, want float64) error {
	return fmt.Errorf("goroutine %d iter %d index %d: got %g, want %g", g, i, j, got, want)
}
