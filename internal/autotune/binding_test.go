package autotune

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// shippedPicks loads the repository's model.json and returns a model that
// keeps its kernel picks, parameters and fill limit but always predicts f
// with the given confidence — the shipped binding under a forced decision.
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
	m.Ruleset = modelAlways(f, conf).Ruleset
	return m
}

// bindingPaths are the ways a tuner comes to bind a kernel. Each returns the
// operator in its final state and the decision that describes it.
var bindingPaths = []struct {
	name string
	tune func(t *testing.T, model func(conf float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) (*Tuner[float64], *Operator[float64], *Decision)
}{
	{"prediction", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], _ matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.99), Config{Threads: threads})
		op, d, err := tn.Tune(m)
		if err != nil || d.UsedFallback {
			t.Fatalf("Tune: err %v, decision %+v", err, d)
		}
		return tn, op, d
	}},
	{"fallback", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], _ matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.30), Config{Threads: threads})
		op, d, err := tn.Tune(m)
		if err != nil || !d.UsedFallback {
			t.Fatalf("Tune: err %v, decision %+v", err, d)
		}
		return tn, op, d
	}},
	{"format-hint", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.99), Config{Threads: threads})
		op, d, err := tn.TuneOpts(m, TuneOptions{FormatHint: f, HasFormatHint: true})
		if err != nil {
			t.Fatal(err)
		}
		return tn, op, d
	}},
	{"no-fallback", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], _ matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.30), Config{Threads: threads, DisableFallback: true})
		op, d, err := tn.Tune(m)
		if err != nil || d.UsedFallback {
			t.Fatalf("Tune: err %v, decision %+v", err, d)
		}
		return tn, op, d
	}},
	{"cache-hit", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], _ matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.99), Config{Threads: threads})
		if _, _, err := tn.Tune(m); err != nil {
			t.Fatal(err)
		}
		op, d, err := tn.Tune(m)
		if err != nil || !d.CacheHit {
			t.Fatalf("second Tune: err %v, decision %+v", err, d)
		}
		return tn, op, d
	}},
	{"amortised-incumbent", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.99), Config{Threads: threads})
		tn.Cache().Put(m2key(m), CacheEntry{Format: f, Confidence: 1, Measured: true, ConvertSec: 1, SpMVSec: 0.1, IncumbentSec: 0.2})
		op, d, err := tn.TuneOpts(m, TuneOptions{Iterations: 2})
		if err != nil || (f != matrix.FormatCSR && !d.Amortized) {
			t.Fatalf("TuneOpts: err %v, decision %+v", err, d)
		}
		return tn, op, d
	}},
	{"background-swap", func(t *testing.T, model func(float64) *Model, threads int, m *matrix.CSR[float64], f matrix.Format) (*Tuner[float64], *Operator[float64], *Decision) {
		tn := New[float64](model(0.99), Config{Threads: threads})
		tn.Cache().Put(m2key(m), CacheEntry{Format: f, Confidence: 1, Measured: true, ConvertSec: 1, SpMVSec: 0.1, IncumbentSec: 0.2})
		hold := make(chan struct{})
		op, d, err := tn.TuneOpts(m, TuneOptions{Iterations: 1 << 20, HoldConversion: hold})
		if err != nil {
			t.Fatal(err)
		}
		close(hold)
		if st := op.AwaitConversion(); f != matrix.FormatCSR && st != ConvertDone {
			t.Fatalf("conversion state %v, want done", st)
		}
		return tn, op, d
	}},
}

// TestBindingFollowsTunerThreads is the contract of the thread-aware
// binding, on the shipped model's picks: whichever way the tuner comes to
// choose a format, a tuner above one thread serves a StratParallel kernel,
// and a one-thread tuner serves exactly the kernel the model names — the
// binding before this contract existed — with bit-for-bit its result.
func TestBindingFollowsTunerThreads(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the contract needs two")
	}
	lib := kernels.NewLibrary[float64]()
	// Banded, so every format converts within the fallback's fill limit.
	m := gen.MultiDiagonal[float64](4000, []int{-1, 0, 1}, rand.New(rand.NewSource(12)))
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/8
	}
	for _, f := range matrix.Formats {
		model := func(conf float64) *Model { return shippedPicks(t, f, conf) }
		named := lib.Lookup(model(1).Kernels[f.String()])
		for _, path := range bindingPaths {
			for _, threads := range []int{1, 4} {
				tn, op, d := path.tune(t, model, threads, m, f)
				served := lib.Lookup(op.KernelName())
				if d.Kernel != served.Name {
					t.Errorf("%s/%s/threads=%d: decision says %s, operator serves %s", f, path.name, threads, d.Kernel, served.Name)
				}
				if threads > 1 {
					if served.Strategies&kernels.StratParallel == 0 {
						t.Errorf("%s/%s/threads=%d: serves %s, which lacks StratParallel", f, path.name, tn.Threads(), served.Name)
					}
					tn.Close()
					continue
				}
				// One thread: the model's own name for the format served, and
				// that kernel's bits.
				want := named
				if op.Format() != f { // fallback or amortisation chose another format
					want = lib.Lookup(model(1).Kernels[op.Format().String()])
				}
				if served != want {
					t.Errorf("%s/%s/threads=1: serves %s, the model names %s", f, path.name, served.Name, want.Name)
				}
				mat, err := kernels.ConvertWithParams(m, op.Format(), 0, tn.paramsFor(op.Format()))
				if err != nil {
					t.Fatal(err)
				}
				got, ref := make([]float64, m.Rows), make([]float64, m.Rows)
				op.MulVec(x, got)
				want.Run(mat, x, ref, 1)
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s/%s/threads=1: y[%d] = %g, %s alone gives %g", f, path.name, i, got[i], want.Name, ref[i])
					}
				}
				tn.Close()
			}
		}
	}
}

// TestSharedCacheBindsPerTuner: two tuners at one and four threads share a
// decision cache. A hit on an entry the other tuner wrote binds the hitting
// tuner's own kernel for the format, not the name the entry carries — in
// both directions.
func TestSharedCacheBindsPerTuner(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a tuner's threads are capped at GOMAXPROCS; the test needs two")
	}
	lib := kernels.NewLibrary[float64]()
	model := shippedPicks(t, matrix.FormatCSR, 0.99)
	one := New[float64](model, Config{Threads: 1})
	defer one.Close()
	four := New[float64](model, Config{Threads: 4, Cache: one.Cache()})
	defer four.Close()

	serial := model.Kernels[matrix.FormatCSR.String()]
	parallel := lib.ParallelSibling(lib.Lookup(serial)).Name
	if serial == parallel {
		t.Fatalf("shipped CSR pick %s is its own parallel sibling; the test needs a serial pick", serial)
	}
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
