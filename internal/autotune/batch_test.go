package autotune

import (
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// batchInput packs k distinct integer-valued columns into the interleaved
// layout and returns both forms.
func batchInput(n, k int) (xs [][]float64, xb []float64) {
	xs = make([][]float64, k)
	xb = make([]float64, n*k)
	for j := 0; j < k; j++ {
		xs[j] = make([]float64, n)
		for c := 0; c < n; c++ {
			v := float64(1 + (c+5*j)%9)
			xs[j][c] = v
			xb[c*k+j] = v
		}
	}
	return xs, xb
}

// TestMulVecBatchMatchesColumnwise drives both MulVecBatch paths — the tiled
// SpMM kernel and the loop-over-vectors fallback — by pinning the crossover
// to each extreme, and checks column j of the batched product against a
// single-vector MulVec of input column j. Integer values make the comparison
// exact regardless of summation order.
func TestMulVecBatchMatchesColumnwise(t *testing.T) {
	for _, f := range matrix.Formats {
		tuner := New[float64](modelAlways(f, 0.99), Config{Threads: 2})
		defer tuner.Close()
		m := gen.MultiDiagonal[float64](400, []int{-2, 0, 3}, rand.New(rand.NewSource(11)))
		op, _, err := tuner.Tune(m)
		if err != nil {
			t.Fatal(err)
		}
		if op.eng.Load().batch == nil {
			t.Fatalf("%v: no batch kernel bound", f)
		}
		for _, k := range []int{1, 2, 3, 4, 5, 8} {
			xs, xb := batchInput(m.Cols, k)
			want := make([][]float64, k)
			for j := 0; j < k; j++ {
				want[j] = make([]float64, m.Rows)
				op.MulVec(xs[j], want[j])
			}
			for _, crossover := range []int{2, NeverBatch} { // tiled path, loop path
				op.eng.Load().crossover.Store(int32(crossover))
				yb := make([]float64, m.Rows*k)
				op.MulVecBatch(xb, yb, k)
				for j := 0; j < k; j++ {
					for i := 0; i < m.Rows; i++ {
						if yb[i*k+j] != want[j][i] {
							t.Fatalf("%v k=%d crossover=%d: y[%d][col %d] = %g, want %g",
								f, k, crossover, i, j, yb[i*k+j], want[j][i])
						}
					}
				}
			}
		}
	}
}

// probedWidth reports whether c is something the crossover probe can return.
func probedWidth(c int) bool {
	for _, w := range batchProbeWidths {
		if c == w {
			return true
		}
	}
	return c == NeverBatch
}

// TestMulVecBatchCrossoverRecorded pins the lazy contract: tuning
// measures no crossover and spends nothing on one; single-vector traffic,
// batched or not, never triggers the probe; the first call of two or more
// vectors runs it exactly once — whether it lends its own buffers (k at the
// widest probe width) or the probe has to bring a workspace (k below it) —
// and the operator, the tuner's counters and the result all show it.
func TestMulVecBatchCrossoverRecorded(t *testing.T) {
	m := gen.RandomUniform[float64](1000, 1000, 8, rand.New(rand.NewSource(12)))
	for _, k := range []int{2, 3, 8, 11} {
		tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 2})
		op, d, err := tuner.Tune(m)
		if err != nil {
			t.Fatal(err)
		}
		if d.BatchProbeSec != 0 || op.BatchCrossover() != 0 {
			t.Errorf("k=%d: fresh tune reports crossover %d probed in %gs, want none measured yet",
				k, op.BatchCrossover(), d.BatchProbeSec)
		}
		if d.TuneSec() <= 0 {
			t.Errorf("k=%d: TuneSec = %g, want > 0", k, d.TuneSec())
		}

		xs, xb := batchInput(m.Cols, k)
		y := make([]float64, m.Rows)
		op.MulVec(xs[0], y)
		op.MulVecBatch(xs[0], y, 1)
		if st := tuner.Stats(); st.BatchProbes != 0 || op.BatchCrossover() != 0 {
			t.Errorf("k=%d: single-vector calls ran %d probes, crossover %d; want neither", k, st.BatchProbes, op.BatchCrossover())
		}

		// The probing call lends its buffers, so its own product is computed
		// last and must be whole.
		yb := make([]float64, m.Rows*k)
		op.MulVecBatch(xb, yb, k)
		for j := 0; j < k; j++ {
			op.MulVec(xs[j], y)
			for i := range y {
				if yb[i*k+j] != y[i] {
					t.Fatalf("k=%d: probing call's y[%d][col %d] = %g, want %g", k, i, j, yb[i*k+j], y[i])
				}
			}
		}
		c := op.BatchCrossover()
		st := tuner.Stats()
		if !probedWidth(c) || st.BatchProbes != 1 || st.BatchProbeSec <= 0 {
			t.Errorf("k=%d: after the first batched call crossover %d, %d probes in %gs; want a probe width or NeverBatch from one timed probe",
				k, c, st.BatchProbes, st.BatchProbeSec)
		}
		op.MulVecBatch(xb, yb, k)
		if again := tuner.Stats(); again.BatchProbes != 1 || op.BatchCrossover() != c {
			t.Errorf("k=%d: second batched call moved the probe count to %d and the crossover %d → %d", k, again.BatchProbes, c, op.BatchCrossover())
		}
		tuner.Close()
	}
}

// TestCrossoverProbesWidthThree: width 3 has a timing of its own. An engine
// whose tiled kernel loses to the loop at two vectors and wins at three
// settles on 3 — not on 4, as it did when 3 was not a probe width — and the
// probe stops timing at the first width that wins.
func TestCrossoverProbesWidthThree(t *testing.T) {
	tile := map[int]float64{2: 2.5, 3: 2.9, 4: 3.1, 8: 5} // seconds per tiled pass; the loop costs 1 s per vector
	var timed []int
	got := firstWinningWidth(1, func(w int) float64 {
		timed = append(timed, w)
		return tile[w]
	})
	if got != 3 || len(timed) != 2 || timed[0] != 2 || timed[1] != 3 {
		t.Errorf("crossover %d after timing widths %v, want 3 after [2 3]", got, timed)
	}
	if got := firstWinningWidth(1, func(w int) float64 { return float64(w) + 0.5 }); got != NeverBatch {
		t.Errorf("a tile that loses at every width gave crossover %d, want NeverBatch", got)
	}
}

// TestEmptyMatrixCrossoverUnmeasured: with no entries there is nothing to
// time; the first batched call settles on the narrowest width at once.
func TestEmptyMatrixCrossoverUnmeasured(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m, err := matrix.FromTriples[float64](6, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	yb := []float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	op.MulVecBatch(make([]float64, 10), yb, 2)
	for i, v := range yb {
		if v != 0 {
			t.Fatalf("yb[%d] = %g, want 0", i, v)
		}
	}
	if c := op.BatchCrossover(); c != batchProbeWidths[0] {
		t.Errorf("empty matrix crossover %d, want %d", c, batchProbeWidths[0])
	}
}

// TestCacheHitReusesCrossover: once any operator of a cache entry has run a
// batched call, its measured width is on the entry, and every later hit binds
// it — a second handle's first batched call does not probe. When the leader
// never batched, the first hit that does probes for itself and publishes.
func TestCacheHitReusesCrossover(t *testing.T) {
	m := gen.ConstantDegree[float64](600, 5, rand.New(rand.NewSource(13)))
	const k = 8
	_, xb := batchInput(m.Cols, k)
	yb := make([]float64, m.Rows*k)
	for _, leaderBatches := range []bool{true, false} {
		tuner := New[float64](modelAlways(matrix.FormatELL, 0.99), Config{Threads: 2})
		lead, _, err := tuner.Tune(m)
		if err != nil {
			t.Fatal(err)
		}
		if leaderBatches {
			lead.MulVecBatch(xb, yb, k)
		}
		entry, ok := tuner.Cache().Get(m2key(tuner, m))
		if !ok || entry.BatchCrossover != lead.BatchCrossover() || probedWidth(entry.BatchCrossover) != leaderBatches {
			t.Fatalf("leader batched %v: entry %+v (present %v) against the leader's crossover %d", leaderBatches, entry, ok, lead.BatchCrossover())
		}

		hit, d, err := tuner.Tune(m)
		if err != nil {
			t.Fatal(err)
		}
		if !d.CacheHit {
			t.Fatal("second tune missed the cache")
		}
		if hit.BatchCrossover() != entry.BatchCrossover {
			t.Errorf("leader batched %v: hit bound crossover %d, the entry carries %d",
				leaderBatches, hit.BatchCrossover(), entry.BatchCrossover)
		}
		before := tuner.Stats().BatchProbes
		hit.MulVecBatch(xb, yb, k)
		probes := tuner.Stats().BatchProbes - before
		if leaderBatches && probes != 0 {
			t.Errorf("hit on a probed entry ran %d probes on its first batched call, want 0", probes)
		}
		if !leaderBatches {
			// The hit probed for itself, and told the cache: the third handle
			// inherits the width.
			entry, _ = tuner.Cache().Get(m2key(tuner, m))
			if probes != 1 || !probedWidth(hit.BatchCrossover()) || entry.BatchCrossover != hit.BatchCrossover() {
				t.Errorf("hit on an unprobed entry: %d probes, crossover %d, entry now %d; want one probe, published",
					probes, hit.BatchCrossover(), entry.BatchCrossover)
			}
			third, _, err := tuner.Tune(m)
			if err != nil {
				t.Fatal(err)
			}
			third.MulVecBatch(xb, yb, k)
			if got := tuner.Stats().BatchProbes - before; got != 1 || third.BatchCrossover() != hit.BatchCrossover() {
				t.Errorf("third handle: %d probes in all, crossover %d; want the second handle's one probe and its width %d",
					got, third.BatchCrossover(), hit.BatchCrossover())
			}
		}
		tuner.Close()
	}
}

// TestMulVecBatchEdgeWidths: k = 0 is a no-op and negative k panics.
func TestMulVecBatchEdgeWidths(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m := gen.RandomUniform[float64](50, 50, 3, rand.New(rand.NewSource(14)))
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	op.MulVecBatch(nil, nil, 0) // must not touch anything

	defer func() {
		if recover() == nil {
			t.Error("negative batch width did not panic")
		}
	}()
	op.MulVecBatch(nil, nil, -1)
}

// TestMulVecBatchShapePanics: mis-sized interleaved buffers must panic with
// the shape message, not read out of range.
func TestMulVecBatchShapePanics(t *testing.T) {
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 1})
	defer tuner.Close()
	m := gen.RandomUniform[float64](20, 30, 2, rand.New(rand.NewSource(15)))
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct{ lx, ly int }{
		{30 * 4, 20 * 3}, // yb sized for wrong k
		{30 * 3, 20 * 4}, // xb sized for wrong k
		{30, 20},         // single-vector buffers at k=4
	}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("|xb|=%d |yb|=%d k=4 did not panic", b.lx, b.ly)
				}
			}()
			op.MulVecBatch(make([]float64, b.lx), make([]float64, b.ly), 4)
		}()
	}
}

// TestMulVecBatchZeroAlloc is the serving contract: after the first call —
// which probes the crossover — and one warm-up call per path, MulVecBatch
// allocates nothing on either path (the loop path's gather and scatter
// scratch is cached on the engine).
func TestMulVecBatchZeroAlloc(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("allocation accounting is not stable under -race")
	}
	tuner := New[float64](modelAlways(matrix.FormatCSR, 0.99), Config{Threads: 4})
	defer tuner.Close()
	m := gen.RandomUniform[float64](5000, 5000, 6, rand.New(rand.NewSource(16)))
	op, _, err := tuner.Tune(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5, 8} {
		_, xb := batchInput(m.Cols, k)
		yb := make([]float64, m.Rows*k)
		op.MulVecBatch(xb, yb, k) // at k = 2 the operator's first batched call: the probe
		if !probedWidth(op.BatchCrossover()) {
			t.Fatalf("k=%d: crossover %d after a batched call, want it probed", k, op.BatchCrossover())
		}
		if allocs := testing.AllocsPerRun(20, func() { op.MulVecBatch(xb, yb, k) }); allocs != 0 {
			t.Errorf("k=%d at the probed crossover %d: %.1f allocs per steady-state call, want 0", k, op.BatchCrossover(), allocs)
		}
		for _, crossover := range []int{2, NeverBatch} { // tiled path, loop path
			op.eng.Load().crossover.Store(int32(crossover))
			op.MulVecBatch(xb, yb, k) // warm: plan, workers, loop scratch
			if allocs := testing.AllocsPerRun(20, func() { op.MulVecBatch(xb, yb, k) }); allocs != 0 {
				t.Errorf("k=%d crossover=%d: %.1f allocs per steady-state call, want 0", k, crossover, allocs)
			}
		}
	}
}
