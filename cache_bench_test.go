// Benchmarks and checks for the serving runtime's decision cache: a cold
// Tune (execute-and-measure regime) against a cache-hit Tune on a corpus
// representative matrix, and a whole served request on a re-submitted
// pattern. cmd/smat-bench -experiment cache prints the first comparison as a
// table; benchmark/'s serve_hit workload is the second end to end.
package smat_test

import (
	"math/rand"
	"testing"
	"time"

	"smat"
	"smat/internal/corpus"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// cacheBenchMatrix builds a corpus representative matrix (pkustk14, the
// heavy irregular class) at reduced scale.
func cacheBenchMatrix(tb testing.TB) *smat.Matrix[float64] {
	tb.Helper()
	reps := corpus.Representatives(0.05)
	m := reps[8].Matrix() // pkustk14: structural, irregular heavy
	a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// cacheBenchTuner builds a tuner whose confidence threshold forces the
// execute-and-measure path on a cold decision — the expensive regime the
// cache amortises.
func cacheBenchTuner(cacheSize int) *smat.Tuner[float64] {
	unsure := smat.DefaultModel()
	unsure.ConfidenceThreshold = 0.999
	return smat.NewTuner[float64](unsure, smat.WithThreads(2), smat.WithCacheSize(cacheSize))
}

// BenchmarkTuneCold measures the full tuning pass with caching disabled:
// feature extraction, rule walk, and the execute-and-measure fallback.
func BenchmarkTuneCold(b *testing.B) {
	tuner := cacheBenchTuner(-1)
	a := cacheBenchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.Tune(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuneCacheHit measures the cache-hit path: feature extraction,
// fingerprint lookup, and format conversion only.
func BenchmarkTuneCacheHit(b *testing.B) {
	tuner := cacheBenchTuner(4096)
	a := cacheBenchMatrix(b)
	if _, err := tuner.Tune(a); err != nil { // prime the cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.Tune(a); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := tuner.Stats()
	b.ReportMetric(float64(st.Hits), "cache-hits")
	b.ReportMetric(100*st.HitRate(), "hit-rate-%")
}

// BenchmarkServeRequest is the head of one served request on a pattern the
// tuner knows: smat.NewCSR on the template's index arrays under new values
// (validation and signing) and the first CSRSpMV on the handle (structure
// index hit, decision-cache hit, conversion, one multiply) — what a request
// pays before its steady-state calls, per stored entry, one pattern of some
// 50 k entries per format class.
func BenchmarkServeRequest(b *testing.B) {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, c := range []struct {
		class smat.Format
		m     *matrix.CSR[float64]
	}{
		{smat.FormatDIA, gen.Laplacian2D5pt[float64](100, 100)},
		{smat.FormatELL, gen.BipartiteIncidence[float64](12000, 6000, 4, rng(1))},
		{smat.FormatCSR, gen.RandomUniform[float64](900, 900, 60, rng(2))},
		{smat.FormatCOO, gen.PreferentialAttachment[float64](8000, 3, rng(3))},
	} {
		b.Run(c.class.String(), func(b *testing.B) {
			m := c.m
			tuner := smat.NewTuner[float64](smat.DefaultModel(), smat.WithThreads(2))
			defer tuner.Close()
			x, y := make([]float64, m.Cols), make([]float64, m.Rows)
			for i := range x {
				x[i] = 1
			}
			vals := [2][]float64{m.Vals, values(m.NNZ(), 1)}
			request := func(i int) *smat.Matrix[float64] {
				a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, vals[i%2])
				if err == nil {
					err = tuner.CSRSpMV(a, x, y)
				}
				if err != nil {
					b.Fatal(err)
				}
				return a
			}
			request(0) // prime: the one scan and the one decision
			b.ResetTimer()
			var last *smat.Matrix[float64]
			for i := 1; i <= b.N; i++ {
				last = request(i)
			}
			b.StopTimer()
			if d := last.Operator().Decision(); !d.StructureHit || !d.CacheHit || d.Chosen != c.class {
				b.Fatalf("request served %v: structure hit %v, cache hit %v", d.Chosen, d.StructureHit, d.CacheHit)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
		})
	}
}

// BenchmarkDeferredCall is what a call on a handle ahead of its deferred
// conversion costs: the unhinted CSRSpMV on a small stencil whose DIA
// conversion is held off ("deferred": the argument checks, the slot load, the
// count of products — one atomic add — and the kernel) against the handle's
// tuned-CSR operator called directly ("operator": the kernel alone).
func BenchmarkDeferredCall(b *testing.B) {
	m := gen.Laplacian2D5pt[float64](6, 6)
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)
	tuner := smat.NewTuner[float64](smat.DefaultModel(), smat.WithThreads(2))
	defer tuner.Close()
	a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err == nil {
		err = tuner.CSRSpMV(a, x, y)
	}
	if err != nil {
		b.Fatal(err)
	}
	if !smat.HoldConversion(a) {
		b.Fatal("the first call deferred no conversion")
	}
	op := a.Operator()
	b.Run("deferred", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := tuner.CSRSpMV(a, x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("operator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op.MulVec(x, y)
		}
	})
	if a.Operator() != op {
		b.Fatal("the held handle converted")
	}
}

// TestCacheHitTuningSpeedup asserts what the cache-hit path guarantees on a
// corpus representative matrix whose cold decision took the
// execute-and-measure fallback: a hit measures nothing — no fallback, no
// CSR-SpMV unit, no payoff probe, not one dispatch through the worker pool —
// and Tuner.Stats counts it. (internal/autotune's
// TestPredictedLeaderRunsNoKernel counts the kernel runs themselves, serial
// ones included.) The cold ÷ hit time ratio is logged, not gated: it measures
// how expensive the fallback is, which is not the hit path's to promise.
func TestCacheHitTuningSpeedup(t *testing.T) {
	a := cacheBenchMatrix(t)

	cold := cacheBenchTuner(-1)
	warm := cacheBenchTuner(4096)
	if _, err := warm.Tune(a); err != nil {
		t.Fatal(err)
	}
	if d := a.Operator().Decision(); !d.UsedFallback || d.CacheHit || d.Overhead() <= 0 {
		t.Fatalf("priming decision did not take the fallback: %+v", d)
	}
	primed := warm.Stats()

	const hits = 20
	minOver := func(n int, tune func() error) float64 {
		best := 0.0
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := tune(); err != nil {
				t.Fatal(err)
			}
			if sec := time.Since(start).Seconds(); i == 0 || sec < best {
				best = sec
			}
		}
		return best
	}
	hitSec := minOver(hits, func() error { _, err := warm.Tune(a); return err })
	d := a.Operator().Decision()
	st := warm.Stats()
	coldSec := minOver(3, func() error { _, err := cold.Tune(a); return err })
	t.Logf("cold %.3gs vs cache hit %.3gs (%.1fx)", coldSec, hitSec, coldSec/hitSec)

	if !d.CacheHit || d.UsedFallback || d.Overhead() != 0 || d.BreakEvenIters != 0 {
		t.Errorf("cache-hit decision measured something: %+v", d)
	}
	if st.Hits-primed.Hits != hits || st.Misses != primed.Misses {
		t.Errorf("stats count %d hits and %d misses over %d hit tunes (stats %+v)", st.Hits-primed.Hits, st.Misses-primed.Misses, hits, st)
	}
	// A tune of this size wakes the pool's workers as it starts
	// (PoolStats.Warmed): a wake token, not a dispatch.
	st.Pool.Warmed, primed.Pool.Warmed = 0, 0
	if st.Pool != primed.Pool {
		t.Errorf("cache hits ran kernels: pool %+v → %+v", primed.Pool, st.Pool)
	}
}
