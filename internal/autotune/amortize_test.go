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

// intDiagonal builds a small-integer tri-diagonal matrix: every kernel sums
// the same small integers, so CSR and DIA engines agree bit-for-bit and a
// single dense reference checks results from either side of a swap.
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
	tuner.Cache().Put(m2key(tuner, m), CacheEntry{
		Format:       matrix.FormatDIA,
		Confidence:   1,
		Measured:     true,
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
	if !d.Converted {
		t.Error("amortised-skip operator is in its final format; Converted should be true")
	}
	if op.Format() != matrix.FormatCSR {
		t.Errorf("operator format = %v, want CSR", op.Format())
	}
	if st := op.ConversionState(); st != ConvertNone {
		t.Errorf("ConversionState = %v, want none", st)
	}
	checkAgainstDense(t, op, m)
}

// TestAmortizedCacheHitSyncConvert: at or past break-even with SyncConvert,
// the conversion runs inline exactly as an eager cache hit.
func TestAmortizedCacheHitSyncConvert(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	seedAmortized(tuner, m)

	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 10, SyncConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit || !d.Converted || d.Amortized {
		t.Errorf("decision = %+v, want converted inline cache hit", d)
	}
	if op.Format() != matrix.FormatDIA {
		t.Errorf("operator format = %v, want DIA", op.Format())
	}
	if st := op.AwaitConversion(); st != ConvertNone {
		t.Errorf("ConversionState = %v, want none (no background work)", st)
	}
	checkAgainstDense(t, op, m)
}

// TestAmortizedCacheHitAsyncSwap: past break-even without SyncConvert, the
// operator serves tuned CSR immediately, converts in the background, and
// swaps — correct answers on both sides of the swap.
func TestAmortizedCacheHitAsyncSwap(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	seedAmortized(tuner, m)

	hold := make(chan struct{})
	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 100, HoldConversion: hold})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit || d.Converted || d.Chosen != matrix.FormatDIA {
		t.Errorf("decision = %+v, want pending DIA conversion", d)
	}
	if st := op.ConversionState(); st != ConvertPending {
		t.Fatalf("ConversionState = %v, want pending", st)
	}
	if op.Format() != matrix.FormatCSR {
		t.Fatalf("pre-swap format = %v, want CSR incumbent", op.Format())
	}
	checkAgainstDense(t, op, m) // served from the incumbent

	close(hold)
	if st := op.AwaitConversion(); st != ConvertDone {
		t.Fatalf("AwaitConversion = %v, want done", st)
	}
	if op.Format() != matrix.FormatDIA {
		t.Errorf("post-swap format = %v, want DIA", op.Format())
	}
	checkAgainstDense(t, op, m) // served from the swapped-in engine
}

// TestBackgroundConversionPanicContained: a panic on the conversion worker —
// a goroutine no caller can recover on — ends the conversion, not the
// process: the state is ConvertFailed, AwaitConversion returns, and the
// operator keeps serving the tuned-CSR incumbent, bit for bit.
func TestBackgroundConversionPanicContained(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	seedAmortized(tuner, m)

	hold := make(chan struct{})
	op, _, err := tuner.TuneOpts(m, TuneOptions{Iterations: 100, HoldConversion: hold})
	if err != nil {
		t.Fatal(err)
	}
	if st := op.ConversionState(); st != ConvertPending {
		t.Fatalf("ConversionState = %v, want pending", st)
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 / float64(i+3)
	}
	before := make([]float64, m.Rows)
	op.MulVec(x, before)

	tuner.FailConversions()
	close(hold)
	if st := op.AwaitConversion(); st != ConvertFailed {
		t.Fatalf("AwaitConversion = %v, want failed", st)
	}
	if st := op.ConversionState(); st != ConvertFailed {
		t.Errorf("ConversionState = %v, want failed", st)
	}
	if op.Format() != matrix.FormatCSR {
		t.Errorf("format after the panic = %v, want the CSR incumbent", op.Format())
	}
	after := make([]float64, m.Rows)
	op.MulVec(x, after)
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("row %d: %v after the panic, %v before", i, after[i], before[i])
		}
	}
	checkAgainstDense(t, op, m)
}

// TestAmortizedCacheHitFollowsCPUCount: past break-even with neither
// SyncConvert nor a hold, where the conversion runs is the process's CPU
// count's call — in the background with a core to spare, inline on one CPU.
// CI runs this package at -cpu 1,2 so both sides execute.
func TestAmortizedCacheHitFollowsCPUCount(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	seedAmortized(tuner, m)

	op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !d.CacheHit || d.Chosen != matrix.FormatDIA || d.Amortized {
		t.Fatalf("decision = %+v, want a DIA cache hit", d)
	}
	if runtime.GOMAXPROCS(0) == 1 {
		if !d.Converted || op.ConversionState() != ConvertNone || op.Format() != matrix.FormatDIA {
			t.Errorf("one CPU: converted %v, state %v, serving %v; want DIA converted inline", d.Converted, op.ConversionState(), op.Format())
		}
	} else {
		if d.Converted {
			t.Error("spare CPUs: decision reports an inline conversion, want a background swap")
		}
		if st := op.AwaitConversion(); st != ConvertDone || op.Format() != matrix.FormatDIA {
			t.Errorf("spare CPUs: state %v serving %v after the swap, want done on DIA", st, op.Format())
		}
	}
	checkAgainstDense(t, op, m)
}

// TestHintValidationRefreshesCostlessEntry: a cached non-CSR entry without
// amortisation measurements cannot answer an iteration-hinted request — it
// must be refreshed, not blindly applied.
func TestHintValidationRefreshesCostlessEntry(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(300)
	tuner.Cache().Put(m2key(tuner, m), CacheEntry{Format: matrix.FormatDIA, Confidence: 1, Measured: true})

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
	if entry, ok := tuner.Cache().Get(m2key(tuner, m)); !ok || entry.SpMVSec <= 0 || entry.IncumbentSec <= 0 {
		t.Errorf("refreshed entry lacks cost measurements: %+v", entry)
	}
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
	entry, ok := tuner.Cache().Get(m2key(tuner, m))
	if d.AmortProbeSec != 0 || d.BreakEvenIters != 0 || !ok || entry.SpMVSec != 0 || entry.IncumbentSec != 0 {
		t.Fatalf("un-hinted leader probed rates: decision %+v, entry %+v", d, entry)
	}
	if _, d, err = tuner.Tune(m); err != nil || !d.CacheHit {
		t.Fatalf("hint-free request on the rate-less entry: hit %v, err %v", d.CacheHit, err)
	}
	for i, wantHit := range []bool{false, true} {
		_, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1 << 20, SyncConvert: true})
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
	if !d.Converted {
		t.Error("leader-path operator is always in its final format")
	}
	checkAgainstDense(t, op, m)
}

// TestSwapWindowRace: 8 goroutines hammer MulVecBatch while the background
// conversion swaps the engine underneath them. Under -race this fails loudly
// if the swap races a call in flight; the value checks fail if a torn engine
// ever serves a wrong product.
func TestSwapWindowRace(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(200)
	seedAmortized(tuner, m)

	hold := make(chan struct{})
	op, _, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1 << 20, HoldConversion: hold})
	if err != nil {
		t.Fatal(err)
	}

	const k = 3
	want := denseBatchRef(m, k)

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			xb := batchOnesInput(m.Cols, k)
			yb := make([]float64, m.Rows*k)
			<-start
			for i := 0; i < 200; i++ {
				if g == 0 && i == 50 {
					close(hold) // release the swap mid-hammer
				}
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
	if st := op.AwaitConversion(); st != ConvertDone {
		t.Fatalf("conversion state after hammering = %v, want done", st)
	}
	if op.Format() != matrix.FormatDIA {
		t.Errorf("post-swap format = %v, want DIA", op.Format())
	}
}

// TestConcurrentFirstBatchProbesOncePerEngine: 8 goroutines make their first
// MulVecBatch calls together, at widths 3 and 8, on a fresh operator and on
// one whose background swap lands under them. Nothing is probed on a first
// call any more (the name is the lazy crossover probe's, which this test used
// to count): each engine that serves a batched call was bound to its own
// format's tiled kernel when it was built, and every product is exact.
func TestConcurrentFirstBatchProbesOncePerEngine(t *testing.T) {
	const goroutines = 8
	widths := [...]int{3, 8}
	m := intDiagonal(300)
	hammer := func(t *testing.T, op *Operator[float64], iters int, at func(g, i int)) {
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
				for i := 0; i < iters; i++ {
					at(g, i)
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
	boundTo := func(t *testing.T, e *engine[float64], f matrix.Format) {
		t.Helper()
		if e.batch == nil || e.batch.Format != f || e.mat.Format != f {
			t.Errorf("engine serves %v with batch kernel %v, want %v's", e.mat.Format, e.batch, f)
		}
	}

	t.Run("fresh", func(t *testing.T) {
		tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
		defer tuner.Close()
		op, _, err := tuner.Tune(m)
		if err != nil {
			t.Fatal(err)
		}
		boundTo(t, op.eng.Load(), matrix.FormatDIA)
		hammer(t, op, 20, func(int, int) {})
	})

	t.Run("pending-swap", func(t *testing.T) {
		tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
		defer tuner.Close()
		seedAmortized(tuner, m)
		hold := make(chan struct{})
		op, _, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1 << 20, HoldConversion: hold})
		if err != nil {
			t.Fatal(err)
		}
		boundTo(t, op.eng.Load(), matrix.FormatCSR) // the tuned-CSR incumbent
		hammer(t, op, 60, func(g, i int) {
			if g == 0 && i == 20 {
				close(hold) // swap under the callers
			}
		})
		if st := op.AwaitConversion(); st != ConvertDone {
			t.Fatalf("conversion state after hammering = %v, want done", st)
		}
		boundTo(t, op.eng.Load(), matrix.FormatDIA)
		hammer(t, op, 5, func(int, int) {}) // the swap may have landed after the last call above
	})
}

// TestSwapSteadyStateZeroAlloc: after the swap lands and one warm-up call of
// each kind on the new engine, the pooled path allocates nothing — the
// conversion must not add steady-state cost.
func TestSwapSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("allocation accounting is not stable under -race")
	}
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	defer tuner.Close()
	m := intDiagonal(500)
	seedAmortized(tuner, m)

	hold := make(chan struct{})
	op, _, err := tuner.TuneOpts(m, TuneOptions{Iterations: 1 << 20, HoldConversion: hold})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	xb := batchOnesInput(m.Cols, k)
	yb := make([]float64, m.Rows*k)
	op.MulVecBatch(xb, yb, k) // pre-swap warm-up

	close(hold)
	if st := op.AwaitConversion(); st != ConvertDone {
		t.Fatalf("conversion state = %v, want done", st)
	}
	x := make([]float64, m.Cols)
	y := make([]float64, m.Rows)
	op.MulVec(x, y)           // warm the swapped-in engine's plan
	op.MulVecBatch(xb, yb, k) // and its batch plan
	if allocs := testing.AllocsPerRun(20, func() { op.MulVec(x, y) }); allocs != 0 {
		t.Errorf("MulVec after swap: %.1f allocs per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { op.MulVecBatch(xb, yb, k) }); allocs != 0 {
		t.Errorf("MulVecBatch after swap: %.1f allocs per call, want 0", allocs)
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
