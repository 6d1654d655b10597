package autotune

import (
	"math/rand"
	"sync"
	"testing"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// cloneScaled copies m's structure with every value multiplied by factor:
// an identical fingerprint with different numerics.
func cloneScaled(m *matrix.CSR[float64], factor float64) *matrix.CSR[float64] {
	vals := make([]float64, len(m.Vals))
	for i, v := range m.Vals {
		vals[i] = v * factor
	}
	return &matrix.CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Vals: vals}
}

func TestTuneCacheHitOnIdenticalStructure(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2})
	a := gen.MultiDiagonal[float64](1000, []int{-1, 0, 1}, rand.New(rand.NewSource(1)))
	b := gen.MultiDiagonal[float64](1000, []int{-1, 0, 1}, rand.New(rand.NewSource(2)))

	_, d1, err := tuner.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	if d1.CacheHit {
		t.Error("first Tune reported a cache hit")
	}
	op, d2, err := tuner.Tune(b)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.CacheHit {
		t.Error("structurally identical matrix missed the cache")
	}
	if d2.Chosen != matrix.FormatDIA || op.Format() != matrix.FormatDIA {
		t.Errorf("cached decision chose %v, want DIA", d2.Chosen)
	}
	// The cached decision must still produce a correct operator for the
	// *new* matrix (its values differ from the leader's).
	x := make([]float64, b.Cols)
	for i := range x {
		x[i] = float64(i%5) + 1
	}
	got := make([]float64, b.Rows)
	want := make([]float64, b.Rows)
	op.MulVec(x, got)
	b.ToDense().MulVec(x, want)
	if !matrix.VecApproxEqual(got, want, 1e-9) {
		t.Error("cache-hit operator produced wrong result")
	}
	st := tuner.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
}

func TestTuneCacheCachesFallbackWinner(t *testing.T) {
	// Low confidence forces execute-and-measure; the measured winner must
	// be cached so the second matrix skips the measurement entirely.
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.30), Config{Threads: 2})
	a := gen.RandomUniform[float64](1500, 1500, 6, rand.New(rand.NewSource(3)))
	b := cloneScaled(a, 2.5)

	_, d1, err := tuner.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	if !d1.UsedFallback {
		t.Fatal("expected fallback on low confidence")
	}
	_, d2, err := tuner.Tune(b)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.CacheHit || d2.UsedFallback {
		t.Errorf("second Tune: CacheHit=%v UsedFallback=%v, want hit without fallback", d2.CacheHit, d2.UsedFallback)
	}
	if d2.Chosen != d1.Chosen {
		t.Errorf("cached decision %v differs from measured winner %v", d2.Chosen, d1.Chosen)
	}
	if d2.Confidence != 1 {
		t.Errorf("measured entry confidence = %g, want 1", d2.Confidence)
	}
}

func TestTuneCacheDisabled(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 1, CacheSize: -1})
	a := gen.MultiDiagonal[float64](500, []int{0}, rand.New(rand.NewSource(5)))
	for i := 0; i < 2; i++ {
		_, d, err := tuner.Tune(a)
		if err != nil {
			t.Fatal(err)
		}
		if d.CacheHit {
			t.Fatal("cache hit with caching disabled")
		}
	}
	if st := tuner.Stats().CacheStats; st != (CacheStats{}) {
		t.Errorf("stats = %+v, want zero value", st)
	}
}

func TestTuneCacheCollisionFallsBackToLocalDecision(t *testing.T) {
	// Force a pathological collision: seed the cache with a DIA decision
	// under the fingerprint of a matrix for which DIA is infeasible. Tune
	// must recover with a local decision and must not disturb the entry —
	// asymptotically, and under an iteration hint that makes the entry's
	// costs part of the rejected attempt: the returned decision describes
	// only the local one.
	m := collisionMatrix(t)
	for _, c := range []struct {
		name  string
		entry CacheEntry
		opts  TuneOptions
	}{
		{"asymptotic", CacheEntry{Format: matrix.FormatDIA, Confidence: 1}, TuneOptions{}},
		{"hinted", costedEntry(matrix.FormatDIA), TuneOptions{Iterations: 1 << 20}},
	} {
		tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
		key := m2key(tuner, m)
		tuner.cache.Put(key, c.entry)

		op, d, err := tuner.TuneOpts(m, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if d.CacheHit {
			t.Errorf("%s: infeasible cached format reported as a hit", c.name)
		}
		if d.Chosen == matrix.FormatDIA || op.Format() == matrix.FormatDIA {
			t.Errorf("%s: chose infeasible DIA (decision %+v)", c.name, d)
		}
		// The local decision is a confident CSR rule: nothing to pay off, so
		// no payoff number may be reported — least of all the entry's.
		if d.Asymptotic != matrix.FormatCSR || d.BreakEvenIters != 0 || d.ChosenSpMVSec != 0 || d.IncumbentSec != 0 || d.ConvertSec != 0 {
			t.Errorf("%s: asymptotic %v with break-even %d, chosen %gs, incumbent %gs, convert %gs; want CSR and no payoff numbers",
				c.name, d.Asymptotic, d.BreakEvenIters, d.ChosenSpMVSec, d.IncumbentSec, d.ConvertSec)
		}
		if e, ok := tuner.cache.Get(key); !ok || e != c.entry {
			t.Errorf("%s: collision recovery disturbed the cached entry: %+v", c.name, e)
		}
		tuner.Close()
	}
}

func TestConcurrentTuneSingleflightOnTuner(t *testing.T) {
	// 32 goroutines make the first calls on structurally identical matrices
	// through one tuner: exactly one tuning run may execute; everyone else
	// blocks on it or hits the cache. Once with a slow (fallback) decision path
	// on unsigned matrices, every call estimating its features, and once with
	// a confident decision on signed copies of one pattern: whichever calls
	// estimate, and whichever recall what another just remembered, all key the
	// same entry. No call tallies a diagonal: nothing converts to DIA.
	const goroutines = 32
	base := gen.RandomUniform[float64](1200, 1200, 6, rand.New(rand.NewSource(100)))
	base0, _ := features.Estimated(base)
	for _, c := range []struct {
		model *Model
		sign  bool
	}{
		{modelAlways(matrix.FormatDIA, 0.30), false},
		{modelAlways(matrix.FormatCOO, 0.99), true},
	} {
		tuner := New[float64](c.model, Config{Threads: 1})
		mats := make([]*matrix.CSR[float64], goroutines)
		opts := make([]TuneOptions, goroutines)
		for i := range mats {
			mats[i] = cloneScaled(base, float64(i+1))
			if c.sign {
				opts[i] = signed(t, mats[i])
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < goroutines; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				op, d, err := tuner.TuneOpts(mats[i], opts[i])
				if err != nil || op == nil || d.Features != base0 {
					t.Errorf("TuneOpts: features %+v, want %+v, err %v", d.Features, base0, err)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		st := tuner.Stats()
		if st.Misses != 1 {
			t.Errorf("misses = %d, want exactly 1 tuning run (stats %+v)", st.Misses, st)
		}
		if st.Hits+st.Shared != goroutines-1 {
			t.Errorf("hits+shared = %d, want %d (stats %+v)", st.Hits+st.Shared, goroutines-1, st)
		}
		if st.DiagonalTallies != 0 || (c.sign && st.Structures != 1) {
			t.Errorf("%d diagonal tallies over %d remembered patterns, want none over 1 (stats %+v)", st.DiagonalTallies, st.Structures, st)
		}
		tuner.Close()
	}
}
