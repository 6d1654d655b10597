package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smat"
	"smat/internal/amg"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/refblas"
	"smat/internal/solve"
)

// cgSpecs is cg_solve's three problems. The stencils are deterministic; the
// seed draws the right-hand sides.
func cgSpecs(p preset) []spec {
	return []spec{
		{"cg_lap2d5", 0, func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian2D5pt[float64](p.grid2D, p.grid2D) }},
		{"cg_lap3d7", 0, func(*rand.Rand) *matrix.CSR[float64] {
			return gen.Laplacian3D7pt[float64](p.grid3D, p.grid3D, p.grid3D)
		}},
		{"amg_pcg_lap2d9", 0, func(*rand.Rand) *matrix.CSR[float64] { return gen.Laplacian2D9pt[float64](p.grid2D, p.grid2D) }},
	}
}

const (
	solveTol = 1e-8
	// solveHint is the iteration hint every solve tunes under: enough
	// multiplies ahead that conversion pays off.
	solveHint = 1000
	// residualSlack allows the recomputed true residual to sit above the
	// recurrence residual CG stopped on.
	residualSlack = 10
)

// spmvFunc adapts a function to the solvers' operator interface.
type spmvFunc func(x, y []float64)

func (f spmvFunc) MulVec(x, y []float64) { f(x, y) }

// solveTrace carries one tuned solve's stage timings to the layer metrics.
type solveTrace struct {
	tuneSec, setupSec, bindSec, solveSec float64
	iterations, levels                   int
	op                                   solve.Operator[float64]
	h                                    *amg.Hierarchy[float64]
}

// problem is one linear system of cg_solve with its solvers bound.
type problem struct {
	in      *input
	amg     bool
	b, x    []float64
	maxIter int
	ops     *opSamples
	base    []float64 // refblas solve seconds, one per repeat
	yard    *engine   // refSpMV on the system matrix, yardPerVisit timed calls per repeat
}

// tuned solves the system from a cold tuner, everything inside the caller's
// timed window: Tune(WithIterations) then solve.CG, or — for the AMG problem
// — SetupPooled, Bind through the tuner, and preconditioned CG.
func (p *problem) tuned(e *env, st *solveTrace) (bool, error) {
	tuner := smat.NewTuner[float64](e.model, smat.WithThreads(e.threads))
	defer tuner.Close()
	tune := func(m *matrix.CSR[float64]) (*smat.Operator[float64], error) {
		a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
		if err != nil {
			return nil, err
		}
		return tuner.Tune(a, smat.WithIterations(solveHint))
	}
	clear(p.x)
	if !p.amg {
		var op *smat.Operator[float64]
		var err error
		st.tuneSec = timeIt(func() { op, err = tune(p.in.m) })
		if err != nil {
			return false, err
		}
		var stats solve.Stats
		st.solveSec = timeIt(func() { stats, err = solve.CG[float64](op, nil, p.b, p.x, solveTol, p.maxIter) })
		st.iterations, st.op = stats.Iterations, op
		return stats.Converged, err
	}
	pool := kernels.NewPool[float64](e.threads)
	defer pool.Close()
	var h *amg.Hierarchy[float64]
	var err error
	st.setupSec = timeIt(func() { h, err = amg.SetupPooled(p.in.m, amg.Options{}, pool) })
	if err != nil {
		return false, err
	}
	st.bindSec = timeIt(func() {
		err = h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
			op, err := tune(m)
			if err != nil {
				return nil, err
			}
			return op, nil
		})
	})
	if err != nil {
		return false, err
	}
	var stats amg.SolveStats
	st.solveSec = timeIt(func() { stats = h.SolvePCG(p.b, p.x, solveTol, p.maxIter) })
	st.iterations, st.levels, st.h = stats.Iterations, len(h.Levels), h
	return stats.Converged, nil
}

// fixed is the same solve with every product through refblas.CSRGeMV.
func (p *problem) fixed(lib *refblas.Lib[float64], threads int) (bool, error) {
	csr := func(m *matrix.CSR[float64]) spmvFunc {
		return func(xv, yv []float64) { lib.CSRGeMV(m, xv, yv) }
	}
	clear(p.x)
	if !p.amg {
		stats, err := solve.CG[float64](csr(p.in.m), nil, p.b, p.x, solveTol, p.maxIter)
		return stats.Converged, err
	}
	pool := kernels.NewPool[float64](threads)
	defer pool.Close()
	h, err := amg.SetupPooled(p.in.m, amg.Options{}, pool)
	if err != nil {
		return false, err
	}
	if err := h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) { return csr(m), nil }); err != nil {
		return false, err
	}
	return h.SolvePCG(p.b, p.x, solveTol, p.maxIter).Converged, nil
}

// verify recomputes the residual of p.x with the reference CSR product,
// outside every timed window.
func (p *problem) verify(c *checks, what string, converged bool, err error) {
	if err == nil && !converged {
		err = fmt.Errorf("did not converge in %d iterations", p.maxIter)
	}
	if err == nil {
		if rr := relResidual(p.in.m, p.b, p.x); !(rr <= residualSlack*solveTol) {
			err = fmt.Errorf("true relative residual %g above %g", rr, residualSlack*solveTol)
		}
	}
	c.op(err, "%s: %s", p.in.name, what)
}

// runCG is cg_solve. Unit operation: one solve from a cold tuner to a
// solution at relative residual 1e-8, tuning included (see problem.tuned).
// Baseline: the same solve over refblas.CSRGeMV; yardstick: refSpMV on the
// system matrix, so op_cost_ref_spmv is the time to solution in serial
// products. Repeats are the outer loop, so each problem's samples are spread
// over the whole run.
func runCG(e *env, ins []*input) *outcome {
	out := newOutcome()
	repeats := e.count(0.5, 1)
	lib := refblas.New[float64](e.threads)
	problems := make([]*problem, len(ins))
	for i, in := range ins {
		p := &problem{in: in, amg: i == len(ins)-1, b: make([]float64, in.m.Rows), x: make([]float64, in.m.Rows),
			maxIter: 20 * e.preset.grid2D, ops: &opSamples{input: in.name}, yard: yardstick(in)}
		for j := range p.b {
			p.b[j] = 1 + in.x[j]/2
		}
		problems[i] = p
		out.ops = append(out.ops, p.ops)
	}
	var lt solveLayers
	req := 0
	for r := 0; r < repeats; r++ {
		for _, p := range problems {
			req++
			var st solveTrace
			runtime.GC()
			start := time.Now()
			converged, err := p.tuned(e, &st)
			d := time.Since(start)
			p.verify(&out.checks, "tuned solve", converged, err)
			p.ops.secs = append(p.ops.secs, d.Seconds())
			p.ops.flops = 2 * float64(p.in.m.NNZ()) * float64(st.iterations+1)
			if e.tr != nil && err == nil { // a failed solve leaves st half filled
				lt.record(e, req, p, &st, start, d)
			}

			runtime.GC()
			var fixedConverged bool
			var fixedErr error
			p.base = append(p.base, timeIt(func() { fixedConverged, fixedErr = p.fixed(lib, e.threads) }))
			p.verify(&out.checks, "refblas solve", fixedConverged, fixedErr)
			p.yard.run()
			for c := 0; c < yardPerVisit; c++ {
				p.yard.secs = append(p.yard.secs, timeIt(p.yard.run))
			}
		}
	}
	for _, p := range problems {
		p.ops.baseSec, p.ops.refSec = undisturbed(p.base), undisturbed(p.yard.secs)
	}
	if e.tr != nil {
		lt.cgIterations /= float64(repeats)
		for _, p := range problems {
			if !p.amg {
				lt.swap(e, p.in)
			}
		}
		lt.emit(out.layer)
	}
	return out
}

// solveLayers gathers cg_solve's per-layer numbers on traced runs.
type solveLayers struct {
	cgIterations, amgIterations, levels float64
	iterUs, blas1, cycleMs, swapMs      []float64
	amgSetup, amgBind, spgemm           []float64
}

// record adds one traced solve's spans — the stages are real child spans,
// timed inside the solve; the per-iteration multiply and the Galerkin
// products are replays — and its layer samples.
func (lt *solveLayers) record(e *env, req int, p *problem, st *solveTrace, start time.Time, d time.Duration) {
	root := e.tr.add(0, req, "solve", p.in.name, start, d, false)
	y := make([]float64, p.in.m.Rows)
	if !p.amg {
		e.tr.add(root, req, "autotune", "Tuner.Tune", start, seconds(st.tuneSec), false)
		cg := e.tr.add(root, req, "solve", "solve.CG", start.Add(seconds(st.tuneSec)), seconds(st.solveSec), false)
		st.op.MulVec(p.in.x, y)
		spmv := medianOf(15, func() { st.op.MulVec(p.in.x, y) }) * float64(st.iterations+1)
		e.tr.add(cg, req, "kernels", "Operator.MulVec x iterations", start, seconds(spmv), true)
		lt.cgIterations += float64(st.iterations)
		lt.iterUs = append(lt.iterUs, ratio(st.solveSec*1e6, float64(st.iterations)))
		lt.blas1 = append(lt.blas1, ratio(selfTime(st.solveSec, spmv), st.solveSec))
		return
	}
	setup := e.tr.add(root, req, "amg", "amg.SetupPooled", start, seconds(st.setupSec), false)
	e.tr.add(root, req, "autotune", "Hierarchy.Bind", start.Add(seconds(st.setupSec)), seconds(st.bindSec), false)
	e.tr.add(root, req, "amg", "Hierarchy.SolvePCG", start.Add(seconds(st.setupSec+st.bindSec)), seconds(st.solveSec), false)
	pool := kernels.NewPool[float64](e.threads)
	defer pool.Close()
	rap := 0.0
	for _, lvl := range st.h.Levels {
		if lvl.P != nil {
			rap += e.tr.replay(setup, req, "kernels", "kernels.GalerkinRAP", func() { kernels.GalerkinRAP(lvl.R, lvl.A, lvl.P, pool, 0) })
		}
	}
	lt.amgIterations, lt.levels = float64(st.iterations), float64(st.levels)
	lt.amgSetup = append(lt.amgSetup, st.setupSec)
	lt.amgBind = append(lt.amgBind, st.bindSec)
	lt.spgemm = append(lt.spgemm, rap)
	lt.cycleMs = append(lt.cycleMs, medianOf(5, func() { st.h.Apply(p.b, y) })*1e3)
}

// swap measures the background-conversion swap latency: a second handle of
// the same structure on a warm tuner takes the background path — Tune
// returns serving CSR and the converted engine is swapped in later.
func (lt *solveLayers) swap(e *env, in *input) {
	tuner := smat.NewTuner[float64](e.model, smat.WithThreads(e.threads))
	defer tuner.Close()
	a1, err1 := handle(in)
	a2, err2 := handle(in)
	if err1 != nil || err2 != nil {
		return
	}
	if _, err := tuner.Tune(a1, smat.WithIterations(solveHint)); err != nil {
		return
	}
	if op, err := tuner.Tune(a2, smat.WithIterations(solveHint)); err == nil {
		lt.swapMs = append(lt.swapMs, timeIt(func() { op.AwaitConversion() })*1e3)
	}
}

func (lt *solveLayers) emit(layer map[string]float64) {
	layer["solve.cg_iterations"] = lt.cgIterations
	layer["solve.iter_us"] = geomean(lt.iterUs)
	layer["solve.blas1_share"] = median(lt.blas1)
	layer["amg.setup_s"] = median(lt.amgSetup)
	layer["amg.bind_s"] = median(lt.amgBind)
	layer["amg.levels"] = lt.levels
	layer["amg.pcg_iterations"] = lt.amgIterations
	layer["amg.cycle_ms"] = median(lt.cycleMs)
	layer["kernels.spgemm_s"] = median(lt.spgemm)
	layer["autotune.swap_latency_ms"] = median(lt.swapMs)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
