package autotune

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// shippedPicks loads the repository's model.json and returns a model that
// keeps its classes' kernel picks, parameters and fill limit but always
// predicts f with the given confidence — the shipped binding under a forced
// decision.
func shippedPicks(t *testing.T, f matrix.Format, conf float64) *Model {
	t.Helper()
	file, err := os.Open("../../model.json")
	if err != nil {
		t.Skipf("shipped model not present: %v", err)
	}
	defer file.Close()
	m, err := LoadModel(file)
	if err != nil {
		t.Fatal(err)
	}
	rs := modelAlways(f, conf).Classes[0].Ruleset
	for i := range m.Classes {
		m.Classes[i].Ruleset = rs
	}
	return m
}

// TestShippedModelBindings pins what the committed model.json binds: a class
// for one thread and one for two — the benchmark of record's count — each
// naming the partitioned kernels the single-vector bodies were tuned for.
func TestShippedModelBindings(t *testing.T) {
	model := shippedPicks(t, matrix.FormatCSR, 1)
	lib := kernels.NewLibrary[float64]()
	want := map[matrix.Format]string{matrix.FormatCSR: "csr_parallel_nnz_unroll4", matrix.FormatCOO: "coo_parallel_unroll4",
		matrix.FormatDIA: "dia_blocked_parallel", matrix.FormatELL: "ell_width_parallel"}
	if len(model.Classes) != 2 || model.Classes[0].Threads != 1 || model.Classes[1].Threads != 2 {
		t.Fatalf("shipped classes %+v, want one at 1 thread and one at 2", model.Classes)
	}
	for _, threads := range []int{1, 2} {
		class := model.Class(threads)
		if class.Threads != threads {
			t.Errorf("threads=%d runs the class of %d", threads, class.Threads)
		}
		for f, k := range resolveKernels(class, lib) {
			if k.Name != want[f] || k.Strategies&kernels.StratParallel == 0 {
				t.Errorf("threads=%d: %v binds %s, want %s", threads, f, k.Name, want[f])
			}
		}
	}
}

// TestNewPicksThreadClass: a tuner runs the class trained at the largest
// thread count not above its own — on a two-class model, the one-thread class
// at one thread and the two-thread class at two and at four — and binds that
// class's kernels.
func TestNewPicksThreadClass(t *testing.T) {
	one, two := modelAlways(matrix.FormatCSR, 0.99).Classes[0], modelAlways(matrix.FormatCOO, 0.99).Classes[0]
	one.Threads, one.Kernels = 1, map[string]string{"CSR": "csr_parallel_nnz"}
	two.Threads, two.Kernels = 2, map[string]string{"CSR": "csr_parallel_nnz_unroll4"}
	model := NewModel(0.85, DefaultMaxFill, two, one)
	for threads, want := range map[int]int{1: 1, 2: 2, 4: 2} {
		if got := model.Class(threads).Threads; got != want {
			t.Errorf("Class(%d) is the class of %d threads, want %d", threads, got, want)
		}
		tn := New[float64](model, Config{Threads: threads})
		if c := model.Class(tn.Threads()); tn.class != c || tn.kernelFor(matrix.FormatCSR).Name != c.Kernels["CSR"] {
			t.Errorf("a tuner at %d threads runs the class of %d and binds %s, want %d and %s",
				tn.Threads(), tn.class.Threads, tn.kernelFor(matrix.FormatCSR).Name, c.Threads, c.Kernels["CSR"])
		}
		tn.Close()
	}
}

// TestLabelTimesTheBoundKernel: at two threads the labeler records, for every
// format it times, the kernel a tuner of its class binds, and times it on the
// pool, as the operator will run it.
func TestLabelTimesTheBoundKernel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the pool needs two")
	}
	l := NewLabeler(KernelChoice{matrix.FormatCSR: "csr_parallel_nnz_unroll4", matrix.FormatELL: "ell_width_parallel"}, 2, fastMeasure)
	defer l.Close()
	m := gen.MultiDiagonal[float64](20000, []int{-1, 0, 1}, rand.New(rand.NewSource(3)))
	lbl := l.Label(m)
	if lbl.Threads != 2 || len(lbl.Kernels) != len(matrix.Formats) {
		t.Fatalf("label at %d threads names kernels %v; want 2 and every format", lbl.Threads, lbl.Kernels)
	}
	for f, name := range lbl.Kernels {
		if k := l.t.kernelFor(f); name != k.Name {
			t.Errorf("%v timed with %s, the tuner binds %s", f, name, k.Name)
		}
	}
	if st := l.t.Stats().Pool; st.Pooled == 0 || st.SerialCutoff != 0 {
		t.Errorf("pool counters %+v after labeling %d nonzeros; want every run pooled", st, m.NNZ())
	}
}

// bindingWant is the non-timing contract of one binding path: what the
// decision must say and what the operator must serve once the path has
// settled. Zero-valued formats are not special: every field is compared.
type bindingWant struct {
	// chosen and asymptotic are Decision.Chosen / Asymptotic; served is
	// op.Format().
	chosen, asymptotic, served matrix.Format
	predictedOK, usedFallback  bool
	cacheHit, amortized        bool
}

// collisionMatrix has an anti-diagonal plus a scattered entry per row: DIA's
// fill guard rejects it, every other format converts.
func collisionMatrix(t *testing.T) *matrix.CSR[float64] {
	t.Helper()
	n := 2000
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: n - 1 - i, Val: 1})
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: (i*7 + 3) % n, Val: 1})
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// costedEntry is a measured cache entry for f whose synthetic costs put
// break-even at 10 iterations.
func costedEntry(f matrix.Format) CacheEntry {
	return CacheEntry{Format: f, Confidence: 1, ConvertSec: 1, SpMVSec: 0.1, IncumbentSec: 0.2}
}

type bindingResult struct {
	tn   *Tuner[float64]
	m    *matrix.CSR[float64] // the matrix tuned (a path may substitute its own)
	op   *Operator[float64]
	d    *Decision
	want bindingWant
}

// bindingPaths are the ways a tuner comes to bind a kernel. Each returns the
// operator, the decision that describes it, and the contract the pair must
// meet.
var bindingPaths = []struct {
	name string
	tune func(t *testing.T, model func(conf float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) bindingResult
}{
	{"prediction", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) bindingResult {
		tn := New[float64](model(0.99), Config{Threads: threads})
		op, d, err := tn.Tune(m)
		if err != nil {
			t.Fatalf("Tune: %v", err)
		}
		return bindingResult{tn, m, op, d, bindingWant{chosen: f, asymptotic: f, served: f, predictedOK: true}}
	}},
	{"fallback", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], _ matrix.Format) bindingResult {
		tn := New[float64](model(0.30), Config{Threads: threads})
		op, d, err := tn.Tune(m)
		if err != nil {
			t.Fatalf("Tune: %v", err)
		}
		// Whichever format measured fastest: the contract is that decision
		// and operator agree on it.
		return bindingResult{tn, m, op, d, bindingWant{chosen: d.Chosen, asymptotic: d.Chosen, served: d.Chosen, usedFallback: true}}
	}},
	{"format-hint", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) bindingResult {
		tn := New[float64](model(0.99), Config{Threads: threads})
		op, d, err := tn.TuneOpts(m, TuneOptions{FormatHint: f, HasFormatHint: true})
		if err != nil {
			t.Fatal(err)
		}
		return bindingResult{tn, m, op, d, bindingWant{chosen: f, asymptotic: f, served: f, predictedOK: true}}
	}},
	{"cache-hit", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) bindingResult {
		tn := New[float64](model(0.99), Config{Threads: threads})
		if _, _, err := tn.Tune(m); err != nil {
			t.Fatal(err)
		}
		op, d, err := tn.Tune(m)
		if err != nil {
			t.Fatalf("second Tune: %v", err)
		}
		return bindingResult{tn, m, op, d, bindingWant{chosen: f, asymptotic: f, served: f, predictedOK: true, cacheHit: true}}
	}},
	{"amortised-incumbent", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) bindingResult {
		tn := New[float64](model(0.99), Config{Threads: threads})
		tn.cache.Put(m2key(tn, m), costedEntry(f))
		op, d, err := tn.TuneOpts(m, TuneOptions{Iterations: 2})
		if err != nil {
			t.Fatalf("TuneOpts: %v", err)
		}
		// Two iterations cannot pay for a conversion: tuned CSR serves. A
		// cached CSR winner is a plain hit.
		return bindingResult{tn, m, op, d, bindingWant{chosen: matrix.FormatCSR, asymptotic: f, served: matrix.FormatCSR, predictedOK: true, cacheHit: true,
			amortized: f != matrix.FormatCSR}}
	}},
	{"hinted-hit", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) bindingResult {
		// Past break-even: the hit converts before TuneOpts returns.
		tn := New[float64](model(0.99), Config{Threads: threads})
		tn.cache.Put(m2key(tn, m), costedEntry(f))
		op, d, err := tn.TuneOpts(m, TuneOptions{Iterations: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return bindingResult{tn, m, op, d, bindingWant{chosen: f, asymptotic: f, served: f, predictedOK: true, cacheHit: true}}
	}},
	{"collision-redecide", func(t *testing.T, model func(float64) *Model, threads int, _ *matrix.CSR[float64], _ matrix.Format) bindingResult {
		// The cached DIA entry does not fit this matrix: the inline conversion
		// fails and the tuner decides locally — here a confident CSR rule —
		// under the same iteration hint. Nothing of the rejected entry may
		// survive into the decision.
		m := collisionMatrix(t)
		local, rs := model(0.99), modelAlways(matrix.FormatCSR, 0.99).Classes[0].Ruleset
		for i := range local.Classes {
			local.Classes[i].Ruleset = rs
		}
		tn := New[float64](local, Config{Threads: threads})
		tn.cache.Put(m2key(tn, m), costedEntry(matrix.FormatDIA))
		op, d, err := tn.TuneOpts(m, TuneOptions{Iterations: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if d.BreakEvenIters != 0 || d.ChosenSpMVSec != 0 || d.IncumbentSec != 0 || d.ConvertSec != 0 {
			t.Errorf("local CSR decision carries payoff numbers break-even %d, chosen %gs, incumbent %gs, convert %gs; want none",
				d.BreakEvenIters, d.ChosenSpMVSec, d.IncumbentSec, d.ConvertSec)
		}
		return bindingResult{tn, m, op, d, bindingWant{chosen: matrix.FormatCSR, asymptotic: matrix.FormatCSR, served: matrix.FormatCSR, predictedOK: true}}
	}},
}

// checkBindingContract compares one settled path against its contract.
func checkBindingContract(t *testing.T, label string, r bindingResult) {
	t.Helper()
	d, w := r.d, r.want
	if d.Chosen != w.chosen || d.Asymptotic != w.asymptotic || r.op.Format() != w.served {
		t.Errorf("%s: chosen %v asymptotic %v served %v, want %v %v %v", label, d.Chosen, d.Asymptotic, r.op.Format(), w.chosen, w.asymptotic, w.served)
	}
	if d.PredictedOK != w.predictedOK || d.UsedFallback != w.usedFallback || d.CacheHit != w.cacheHit || d.Amortized != w.amortized {
		t.Errorf("%s: predictedOK %v usedFallback %v cacheHit %v amortized %v, want %v %v %v %v", label,
			d.PredictedOK, d.UsedFallback, d.CacheHit, d.Amortized, w.predictedOK, w.usedFallback, w.cacheHit, w.amortized)
	}
	if want := r.tn.kernelFor(w.chosen).Name; d.Kernel != want {
		t.Errorf("%s: decision names kernel %s, this tuner binds %s for %v", label, d.Kernel, want, w.chosen)
	}
	if want := r.tn.kernelFor(w.served).Name; r.op.KernelName() != want {
		t.Errorf("%s: operator serves kernel %s, this tuner binds %s for %v", label, r.op.KernelName(), want, w.served)
	}

	// The engine serves the batch kernel of the format it holds.
	e := r.op.eng
	if want := r.tn.lib.BatchFor(w.served); e.batch == nil || e.batch != want {
		t.Errorf("%s: engine batch kernel %+v, want the served format %v's %+v", label, e.batch, w.served, want)
	}
}

// TestBindingFollowsTunerThreads is the contract of the per-class binding,
// on the shipped model's picks: whichever way the tuner comes to choose a
// format, a tuner above one thread serves a StratParallel kernel, and a
// one-thread tuner serves exactly the kernel its class names with bit-for-bit
// that kernel's one-thread result. On
// every path and at both thread counts the decision and the operator meet
// the path's whole non-timing contract (checkBindingContract).
func TestBindingFollowsTunerThreads(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the contract needs two")
	}
	lib := kernels.NewLibrary[float64]()
	// Banded, so every format converts within the fallback's fill limit.
	banded := gen.MultiDiagonal[float64](4000, []int{-1, 0, 1}, rand.New(rand.NewSource(12)))
	for _, f := range matrix.Formats {
		model := func(conf float64) *Model { return shippedPicks(t, f, conf) }
		for _, path := range bindingPaths {
			for _, threads := range []int{1, 4} {
				label := fmt.Sprintf("%s/%s/threads=%d", f, path.name, threads)
				r := path.tune(t, model, threads, banded, f)
				tn, op, m := r.tn, r.op, r.m
				checkBindingContract(t, label, r)
				served := lib.Lookup(op.KernelName())
				if threads > 1 {
					if served.Strategies&kernels.StratParallel == 0 {
						t.Errorf("%s: serves %s, which lacks StratParallel", label, served.Name)
					}
					tn.Close()
					continue
				}
				// One thread: the model's own name for the format served, and
				// that kernel's bits.
				want := lib.Lookup(model(1).Classes[0].Kernels[op.Format().String()])
				if served != want {
					t.Errorf("%s: serves %s, the model names %s", label, served.Name, want.Name)
				}
				mat, err := kernels.Convert(m, op.Format(), 0)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, m.Cols)
				for i := range x {
					x[i] = 1 + float64(i%7)/8
				}
				got, ref := make([]float64, m.Rows), make([]float64, m.Rows)
				op.MulVec(x, got)
				want.Run(mat, x, ref, 1)
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s: y[%d] = %g, %s alone gives %g", label, i, got[i], want.Name, ref[i])
					}
				}
				tn.Close()
			}
		}
	}
}

// TestSharedCacheBindsPerTuner: two tuners at one and four threads run the
// two classes of a model that name different CSR kernels. A cache entry names
// no kernel: the entry one tuner's leader wrote, copied into the other's
// cache, binds the hitting tuner's own kernel for the format — in both
// directions.
func TestSharedCacheBindsPerTuner(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the test needs two")
	}
	const serial, parallel = "csr_parallel_nnz", "csr_parallel_nnz_unroll4"
	shipped := shippedPicks(t, matrix.FormatCSR, 0.99)
	low, high := shipped.Classes[0], shipped.Classes[1]
	low.Kernels, high.Kernels = map[string]string{"CSR": serial}, map[string]string{"CSR": parallel}
	model := NewModel(shipped.ConfidenceThreshold, shipped.MaxFill, low, high)
	one := New[float64](model, Config{Threads: 1})
	defer one.Close()
	four := New[float64](model, Config{Threads: 4})
	defer four.Close()
	for _, c := range []struct {
		name          string
		leader, hit   *Tuner[float64]
		leads, wanted string
		n, perRow     int // distinct shapes, so the two cases do not share a fingerprint
	}{
		{"one-then-four", one, four, serial, parallel, 3000, 6},
		{"four-then-one", four, one, parallel, serial, 1200, 25},
	} {
		m := gen.RandomUniform[float64](c.n, c.n, float64(c.perRow), rand.New(rand.NewSource(7)))
		_, d, err := c.leader.Tune(m)
		if err != nil || d.CacheHit || d.Kernel != c.leads {
			t.Fatalf("%s: leader err %v, decision hit=%v kernel=%s, want a miss bound to %s", c.name, err, d.CacheHit, d.Kernel, c.leads)
		}
		entry, ok := c.leader.cache.Get(m2key(c.leader, m))
		if !ok {
			t.Fatalf("%s: the leader cached nothing", c.name)
		}
		c.hit.cache.Put(m2key(c.hit, m), entry)
		op, d, err := c.hit.Tune(m)
		if err != nil || !d.CacheHit {
			t.Fatalf("%s: second tuner err %v, hit=%v, want a cache hit", c.name, err, d.CacheHit)
		}
		if d.Kernel != c.wanted || op.KernelName() != c.wanted {
			t.Errorf("%s: hit bound %s (operator %s), want this tuner's own %s", c.name, d.Kernel, op.KernelName(), c.wanted)
		}
	}
}

// TestStatsReportPoolWork: a MulVec stream over a matrix above the serial
// cutoff, on a tuner with more than one thread, shows up as pooled
// dispatches, allocates nothing per call, and a small matrix on the same
// tuner counts against the cutoff instead.
func TestStatsReportPoolWork(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the pool needs two")
	}
	tn := New[float64](shippedPicks(t, matrix.FormatCSR, 0.99), Config{Threads: 2})
	defer tn.Close()
	large := gen.RandomUniform[float64](48000, 48000, 8, rand.New(rand.NewSource(40)))
	op, _, err := tn.Tune(large)
	if err != nil {
		t.Fatal(err)
	}
	x, y := make([]float64, large.Cols), make([]float64, large.Rows)
	const k = 8
	xb, yb := make([]float64, large.Cols*k), make([]float64, large.Rows*k)
	before := tn.Stats().Pool
	const calls = 20
	for i := 0; i < calls; i++ {
		op.MulVec(x, y)
	}
	st := tn.Stats().Pool
	if got := st.Pooled + st.Overflow - before.Pooled - before.Overflow; got != calls || st.Pooled == before.Pooled {
		t.Errorf("20 MulVec calls on %d nonzeros moved the pool counters from %+v to %+v; want 20 parallel dispatches, pooled among them", large.NNZ(), before, st)
	}
	if !raceEnabledAutotune {
		op.MulVecBatch(xb, yb, k) // warm the batch plan
		if allocs := testing.AllocsPerRun(10, func() { op.MulVec(x, y) }); allocs != 0 {
			t.Errorf("pooled MulVec: %.1f allocs per call, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { op.MulVecBatch(xb, yb, k) }); allocs != 0 {
			t.Errorf("pooled MulVecBatch: %.1f allocs per call, want 0", allocs)
		}
	}

	small := gen.RandomUniform[float64](500, 500, 6, rand.New(rand.NewSource(41)))
	sop, _, err := tn.Tune(small)
	if err != nil {
		t.Fatal(err)
	}
	before = tn.Stats().Pool
	sop.MulVec(make([]float64, small.Cols), make([]float64, small.Rows))
	if st := tn.Stats().Pool; st.SerialCutoff != before.SerialCutoff+1 || st.Pooled != before.Pooled {
		t.Errorf("one MulVec on %d nonzeros moved the pool counters from %+v to %+v; want one serial-cutoff hit", small.NNZ(), before, st)
	}
}

// TestTuneWarmsPoolForLargeConversions is a cold-tune-shaped sequence: a fresh
// tuner, a DIA matrix of ≈ 40 k entries, and an idle gap before each later
// tune long enough for the pool's worker to park. The first tune starts the
// worker before anything is dispatched, each later one wakes it as the tune
// starts (Warmed +1 each), and every tune converts on it (Pooled +1 each).
// Each conversion tallies its diagonals on the caller before it places the
// entries on the pool (no cache keeps them); the worker Warm readied polls
// through the tally for the warm window, and at most one of
// the three later conversions finds it parked (Woken +1). An undisturbed tune
// dispatches its conversion inside the window; one that took more than twice
// the window was stalled — by the scheduler, the collector or a page fault —
// and is not held to that.
// A matrix below kernels.ConvertWork neither warms the pool nor converts on it.
func TestTuneWarmsPoolForLargeConversions(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the pool needs two")
	}
	m := gen.Laplacian2D5pt[float64](90, 90)
	if m.NNZ() < kernels.ConvertWork {
		t.Fatalf("%d nonzeros is below the conversion cutoff %d", m.NNZ(), kernels.ConvertWork)
	}
	window := warmWindow()
	tn := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2, CacheSize: -1})
	defer tn.Close()
	counted, woken := 0, 0
	for i := 0; i < 4; i++ {
		if i > 0 {
			time.Sleep(20 * time.Millisecond) // far past the spin budget, under load too
		}
		before := tn.Stats().Pool
		start := time.Now()
		op, _, err := tn.Tune(m)
		took := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if tallies := tn.Stats().DiagonalTallies; op.Format() != matrix.FormatDIA || tallies != uint64(i+1) {
			t.Fatalf("tune %d served %v after %d tallies; want DIA after a tally of its own", i, op.Format(), tallies)
		}
		st := tn.Stats().Pool
		if st.Warmed != before.Warmed+1 || st.Pooled != before.Pooled+1 {
			t.Errorf("tune %d moved the pool counters from %+v to %+v; want one worker warmed, one pooled conversion", i, before, st)
		}
		switch {
		case i == 0:
		case took > 2*window:
			t.Logf("tune %d took %v, more than twice the warm window (%v): its wake is not counted", i, took, window)
		default:
			counted++
			woken += int(st.Woken - before.Woken)
		}
	}
	t.Logf("%d of %d conversions inside the warm window (%v) woke the worker", woken, counted, window)
	if woken > 1 {
		t.Errorf("%d of %d conversions inside the warm window woke the worker; want at most one", woken, counted)
	}

	small := gen.Laplacian2D5pt[float64](40, 40)
	fresh := New[float64](modelAlways(matrix.FormatDIA, 0.99), Config{Threads: 2, CacheSize: -1})
	defer fresh.Close()
	if _, _, err := fresh.Tune(small); err != nil {
		t.Fatal(err)
	}
	if st := fresh.Stats().Pool; st != (kernels.PoolStats{}) {
		t.Errorf("a tune of %d nonzeros moved the pool counters to %+v; want no warm-up and a serial conversion", small.NNZ(), st)
	}
}

// warmWindow is the shortest of a few timings of how long a worker Warm readied
// polls before it parks again: four spin budgets of 1<<17 atomic loads
// (kernels' warmWindow·spinIters), 32 times fewer under the race detector, as
// the pool counts them. A conversion that dispatches within this time of the
// tune's start finds the worker polling.
func warmWindow() time.Duration {
	polls := 4 << 17
	if raceEnabledAutotune {
		polls >>= 5
	}
	var cell atomic.Uint32
	best := time.Duration(math.MaxInt64)
	for range 5 {
		start := time.Now()
		for i := 0; cell.Load() == 0 && i < polls; i++ {
		}
		best = min(best, time.Since(start))
	}
	return best
}
