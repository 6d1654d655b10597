package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/refblas"
)

// poison fills y with NaN so a row a kernel never wrote fails the check.
func poison(y []float64) {
	nan := math.NaN()
	for i := range y {
		y[i] = nan
	}
}

// runCold is cold_tune. Unit operation: the first CSRSpMV on a new handle
// of a matrix the tuner has never seen (tuning, conversion and the multiply)
// until y is ready. Each pass builds a fresh tuner; a decision served from
// the cache (two inputs sharing a feature fingerprint) is counted and
// excluded, since it did not pay the cold path. Baseline: one single-thread
// refblas.CSRGeMV, so speedup_vs_fixed is the inverse of the paper's
// Table 3 overhead.
func runCold(e *env, ins []*input) *outcome {
	out := newOutcome()
	passes := e.count(1.4, 2)
	lib1 := refblas.New[float64](1)
	refs := make([]*reference, len(ins))
	ys := make([][]float64, len(ins))
	chosen := make([]map[matrix.Format]bool, len(ins))
	for i, in := range ins {
		refs[i] = newReference(in.m, in.x)
		ys[i] = make([]float64, in.m.Rows)
		chosen[i] = map[matrix.Format]bool{}
		out.ops = append(out.ops, &opSamples{input: in.name, flops: 2 * float64(in.m.NNZ())})
	}
	// base[i] collects the Table 3 unit, one single-thread refblas.CSRGeMV
	// per pass, and yard[i] one refSpMV per pass, so both are sampled across
	// the whole run like the operation they are held against.
	base := make([][]float64, len(ins))
	yard := make([][]float64, len(ins))
	var acc tuneAcc
	req := 0
	for pass := 0; pass < passes; pass++ {
		tuner := smat.NewTuner[float64](e.model, smat.WithThreads(e.threads))
		var at *autotune.Tuner[float64]
		if e.tr != nil {
			at = autotune.New[float64](e.model, autotune.Config{Threads: e.threads})
		}
		hits := 0
		runtime.GC()
		for i, in := range ins {
			req++
			y := ys[i]
			base[i] = append(base[i], timeIt(func() { lib1.CSRGeMV(in.m, in.x, y) }))
			yard[i] = append(yard[i], timeIt(func() { refSpMV(in.m, in.x, y) }))
			poison(y)
			var a *smat.Matrix[float64]
			var err error
			acc.validateSec += timeIt(func() { a, err = handle(in) })
			acc.validatedNNZ += float64(in.m.NNZ())
			start := time.Now()
			if err == nil {
				err = tuner.CSRSpMV(a, in.x, y, smat.WithSyncConvert())
			}
			d := time.Since(start)
			if err == nil {
				err = refs[i].check(y)
			}
			out.checks.op(err, "%s: first CSRSpMV on a new handle", in.name)
			if err != nil {
				continue
			}
			op := a.Operator()
			dec := op.Decision()
			chosen[i][dec.Chosen] = true
			if dec.CacheHit {
				hits++
				continue
			}
			out.ops[i].secs = append(out.ops[i].secs, d.Seconds())
			if e.tr != nil {
				root := e.tr.add(0, req, "smat", "Tuner.CSRSpMV", start, d, false)
				acc.stages(e, root, req, in, op, d.Seconds(), y)
				out.checks.op(acc.decision(at, in), "%s: autotune.TuneOpts replay", in.name)
			}
		}
		st := tuner.Stats()
		// A fingerprint collision whose cached format does not fit is decided
		// locally: the cache counts the hit, the handle does not report one.
		out.checks.expect(int(st.Hits+st.Misses) == len(ins) && hits <= int(st.Hits),
			"pass %d: cache counted %d hits %d misses, handles reported %d hits of %d", pass, st.Hits, st.Misses, hits, len(ins))
		tuner.Close()
		if at != nil {
			at.Close()
		}
	}
	first := make([][]float64, len(ins)) // here the first call is the whole operation
	for i, o := range out.ops {
		o.baseSec, o.refSec, first[i] = undisturbed(base[i]), undisturbed(yard[i]), o.secs
	}
	if e.tr != nil {
		acc.emit(out.layer)
		convertProbe(ins, out.layer)
		firstResultMetrics(first, base, out.layer)
		flips := 0
		for _, c := range chosen {
			if len(c) > 1 {
				flips++
			}
		}
		out.layer["autotune.decision_flip_ratio"] = ratio(float64(flips), float64(len(ins)))
	}
	return out
}

// serveVariants is how many pre-drawn value arrays each serve_hit template
// cycles through: requests carry new values without the draw being timed.
const serveVariants = 4

// runServe is serve_hit. Unit operation: one request — wrap a template's
// arrays with re-drawn values in a new handle (validation), the first
// CSRSpMV (feature extraction, cache hit, conversion) and nine more on the
// handle. The tuner is primed once per template, so every request must be a
// cache hit with no fallback and no probe. Baseline: ten single-thread
// refblas.CSRGeMV calls.
func runServe(e *env, ins []*input) *outcome {
	out := newOutcome()
	requests := e.count(1500, 2*len(ins))
	const spmvs = 10
	lib1 := refblas.New[float64](1)
	rng := rand.New(rand.NewSource(e.seed))
	tuner := smat.NewTuner[float64](e.model, smat.WithThreads(e.threads))
	defer tuner.Close()

	type template struct {
		vals [serveVariants][]float64
		refs [serveVariants]*reference
		y    []float64
	}
	tpl := make([]*template, len(ins))
	for i, in := range ins {
		t := &template{y: make([]float64, in.m.Rows)}
		for v := range t.vals {
			t.vals[v] = make([]float64, len(in.m.Vals))
			for j := range t.vals[v] {
				t.vals[v][j] = float64(rng.Intn(15)+1) / 8
			}
			t.refs[v] = newReference(&matrix.CSR[float64]{Rows: in.m.Rows, Cols: in.m.Cols, RowPtr: in.m.RowPtr, ColIdx: in.m.ColIdx, Vals: t.vals[v]}, in.x)
		}
		tpl[i] = t
		out.ops = append(out.ops, &opSamples{input: in.name, flops: spmvs * 2 * float64(in.m.NNZ())})
		// Prime: the one miss per structure, outside the measured requests.
		a, err := handle(in)
		if err == nil {
			err = tuner.CSRSpMV(a, in.x, t.y, smat.WithSyncConvert())
		}
		out.checks.op(err, "%s: priming CSRSpMV", in.name)
	}
	primed := tuner.Stats()

	var at *autotune.Tuner[float64]
	if e.tr != nil {
		at = autotune.New[float64](e.model, autotune.Config{Threads: e.threads})
		defer at.Close()
		for _, in := range ins {
			_, _, err := at.TuneOpts(in.m, autotune.TuneOptions{SyncConvert: true})
			out.checks.op(err, "%s: priming autotune replay tuner", in.name)
		}
	}

	var acc tuneAcc
	first := make([][]float64, len(ins)) // first-CSRSpMV seconds per template
	// base[i] samples the baseline — one single-thread refblas.CSRGeMV on the
	// template — and yard[i] one refSpMV, once every baseEvery rounds, across
	// the whole run.
	const baseEvery = 16
	base := make([][]float64, len(ins))
	yard := make([][]float64, len(ins))
	runtime.GC()
	for r := 0; r < requests; r++ {
		i := r % len(ins)
		in, t := ins[i], tpl[i]
		v := rng.Intn(serveVariants)
		if r/len(ins)%baseEvery == 0 {
			base[i] = append(base[i], timeIt(func() { lib1.CSRGeMV(in.m, in.x, t.y) }))
			yard[i] = append(yard[i], timeIt(func() { refSpMV(in.m, in.x, t.y) }))
		}
		poison(t.y)
		start := time.Now()
		a, err := smat.NewCSR(in.m.Rows, in.m.Cols, in.m.RowPtr, in.m.ColIdx, t.vals[v])
		validated := time.Now()
		if err == nil {
			err = tuner.CSRSpMV(a, in.x, t.y, smat.WithSyncConvert())
		}
		firstDone := time.Now()
		for s := 1; s < spmvs && err == nil; s++ {
			err = tuner.CSRSpMV(a, in.x, t.y)
		}
		d := time.Since(start)
		if err == nil {
			err = t.refs[v].check(t.y)
		}
		out.checks.op(err, "%s: request %d", in.name, r)
		if err != nil {
			continue
		}
		op := a.Operator()
		if dec := op.Decision(); !dec.CacheHit || dec.UsedFallback {
			out.checks.expect(false, "%s: request %d was not served from the decision cache", in.name, r)
			continue
		}
		out.ops[i].secs = append(out.ops[i].secs, d.Seconds())
		first[i] = append(first[i], firstDone.Sub(start).Seconds())
		if e.tr != nil {
			root := e.tr.add(0, r+1, "smat", "request", start, d, false)
			e.tr.add(root, r+1, "matrix", "smat.NewCSR", start, validated.Sub(start), false)
			call := e.tr.add(root, r+1, "autotune", "Tuner.CSRSpMV(first)", validated, firstDone.Sub(validated), false)
			e.tr.add(root, r+1, "kernels", "Tuner.CSRSpMV x9", firstDone, d-firstDone.Sub(start), false)
			acc.validateSec += validated.Sub(start).Seconds()
			acc.validatedNNZ += float64(in.m.NNZ())
			acc.stages(e, call, r+1, in, op, firstDone.Sub(validated).Seconds(), t.y)
			out.checks.op(acc.decision(at, in), "%s: autotune.TuneOpts replay", in.name)
		}
	}
	st := tuner.Stats()
	served := 0
	for _, o := range out.ops {
		served += len(o.secs)
	}
	out.checks.expect(int(st.Hits-primed.Hits) == served && st.Misses == primed.Misses,
		"cache counted %d hits and %d misses over %d served requests", st.Hits-primed.Hits, st.Misses-primed.Misses, served)

	for i, o := range out.ops {
		o.baseSec, o.refSec = spmvs*undisturbed(base[i]), undisturbed(yard[i])
	}
	if e.tr != nil {
		acc.emit(out.layer)
		convertProbe(ins, out.layer)
		firstResultMetrics(first, base, out.layer)
		out.layer["autotune.cache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses))
		// API self time: the error-returning entry point on a tuned handle
		// against the bare operator, on the largest template.
		in, t := ins[len(ins)-1], tpl[len(ins)-1]
		if a, err := handle(in); err == nil && tuner.CSRSpMV(a, in.x, t.y) == nil {
			op := a.Operator()
			api := medianOf(200, func() { _ = tuner.CSRSpMV(a, in.x, t.y) })
			bare := medianOf(200, func() { op.MulVec(in.x, t.y) })
			out.layer["smat.api_self_us"] = selfTime(api, bare) * 1e6
		}
		out.layer["kernels.pool_dispatch_us"] = poolDispatchUs(e.threads)
	}
	return out
}

// poolDispatchUs is what handing one SpMV to the worker pool costs: the
// pooled run of the parallel CSR kernel on a matrix just above the 8192-entry
// serial cutoff, minus the same kernel run serially.
func poolDispatchUs(threads int) float64 {
	m := gen.ConstantDegree[float64](3000, 3, rand.New(rand.NewSource(1)))
	mat := &kernels.Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	k := kernels.NewLibrary[float64]().Lookup("csr_parallel")
	if k == nil {
		return 0
	}
	pool := kernels.NewPool[float64](threads)
	defer pool.Close()
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)
	for i := range x {
		x[i] = 1
	}
	k.RunPooled(mat, x, y, pool)
	pooled := medianOf(500, func() { k.RunPooled(mat, x, y, pool) })
	serialMat := &kernels.Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	serial := medianOf(500, func() { k.Run(serialMat, x, y, 1) })
	return (pooled - serial) * 1e6
}
