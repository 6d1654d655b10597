package bench

import (
	"fmt"

	"smat/internal/amg"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/refblas"
	"smat/internal/solve"
)

// SolveResult is the solver-workload experiment: end-to-end Krylov solves
// through the tuned operator versus the fixed-format reference, and AMG
// setup-phase Galerkin products (row-blocked SpGEMM on a pool versus the
// serial two-pass triple product). The fast paths' answers are checked by
// internal/oracle (CheckSpGEMM, CheckSolvers), not here.
type SolveResult struct {
	Rows []SolveRow `json:"rows"`
}

// SolveRow is one timed case. BaselineSec holds the reference configuration
// for the same work (serial triple product, fixed-CSR CG, AMG-PCG on
// parallel-CSR levels); Speedup is BaselineSec/Sec where both are set.
type SolveRow struct {
	Case        string  `json:"case"`
	N           int     `json:"n"`
	NNZ         int     `json:"nnz"`
	Threads     int     `json:"threads"`
	Sec         float64 `json:"sec"`
	BaselineSec float64 `json:"baseline_sec,omitempty"`
	Speedup     float64 `json:"speedup,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	ItersPerSec float64 `json:"iters_per_sec,omitempty"`
	IterUs      float64 `json:"iter_us,omitempty"`
	// Pool is what the tuner's worker pool did during the timed solves of a
	// tuned row (a Tuner.Stats().Pool delta): WokenShare = Woken ÷ Pooled is
	// the share of dispatches that found a worker parked and paid an OS wake
	// — the cost of leaving the pool idle between two products.
	Pool       *kernels.PoolStats `json:"pool,omitempty"`
	WokenShare float64            `json:"woken_share,omitempty"`
	Detail     string             `json:"detail,omitempty"`
}

// poolDelta returns what the pool did between two Stats snapshots.
func poolDelta(before, after kernels.PoolStats) *kernels.PoolStats {
	return &kernels.PoolStats{
		Pooled:       after.Pooled - before.Pooled,
		Woken:        after.Woken - before.Woken,
		Overflow:     after.Overflow - before.Overflow,
		SerialCutoff: after.SerialCutoff - before.SerialCutoff,
		Warmed:       after.Warmed - before.Warmed,
		Reclaimed:    after.Reclaimed - before.Reclaimed,
	}
}

// wokenShare is Woken ÷ Pooled, 0 when nothing was dispatched.
func wokenShare(p *kernels.PoolStats) float64 {
	if p.Pooled == 0 {
		return 0
	}
	return float64(p.Woken) / float64(p.Pooled)
}

// SolveBench runs the solver-workload experiment.
func SolveBench(cfg Config) (*SolveResult, error) {
	cfg = cfg.withDefaults()
	trials := cfg.Measure.Trials
	if trials < 1 {
		trials = 3
	}
	res := &SolveResult{}

	if err := galerkinRows(cfg, trials, res); err != nil {
		return nil, err
	}
	if err := cgRows(cfg, trials, res); err != nil {
		return nil, err
	}
	if err := amgPCGRows(cfg, trials, res); err != nil {
		return nil, err
	}

	t := &table{header: []string{"Case", "N", "NNZ", "Thr", "Base(ms)", "Time(ms)", "Speedup", "Iters", "us/It", "Woken/Pooled"}}
	ms := func(s float64) string {
		if s == 0 {
			return "-"
		}
		return f2(s * 1e3)
	}
	for _, r := range res.Rows {
		sp := "-"
		if r.Speedup > 0 {
			sp = f2(r.Speedup) + "x"
		}
		woken := "-"
		if r.Pool != nil {
			woken = fmt.Sprintf("%d/%d", r.Pool.Woken, r.Pool.Pooled)
		}
		t.add(r.Case, fmt.Sprint(r.N), fmt.Sprint(r.NNZ), fmt.Sprint(r.Threads),
			ms(r.BaselineSec), ms(r.Sec), sp, fmt.Sprint(r.Iterations),
			f2(r.IterUs), woken)
	}
	fmt.Fprintln(cfg.Out, "Solver workloads: tuned Krylov solves and parallel Galerkin setup")
	t.print(cfg.Out)
	return res, nil
}

// galerkinRows times the AMG setup-phase coarse-grid products: the serial
// two-pass triple product R·A·P (matrix.TripleProduct) against the
// row-blocked kernels.GalerkinRAP dispatched over a pool of the run's
// threads, summed over every level of each hierarchy.
func galerkinRows(cfg Config, trials int, res *SolveResult) error {
	configs := []struct {
		name  string
		build func() *matrix.CSR[float64]
		opts  amg.Options
	}{
		{
			name: "galerkin/cljp_7pt",
			build: func() *matrix.CSR[float64] {
				n := scaledGrid(50, cfg.Scale)
				return gen.Laplacian3D7pt[float64](n, n, n)
			},
			opts: amg.Options{Coarsening: amg.CLJP, Seed: cfg.Seed},
		},
		{
			name:  "galerkin/rugeL_9pt",
			build: func() *matrix.CSR[float64] { n := scaledGrid(500, cfg.Scale); return gen.Laplacian2D9pt[float64](n, n) },
			opts:  amg.Options{Coarsening: amg.RugeStueben},
		},
	}
	for _, c := range configs {
		a := c.build()
		h, err := amg.SetupPooled(a, c.opts, nil)
		if err != nil {
			return fmt.Errorf("bench: %s setup: %w", c.name, err)
		}
		type rap struct{ r, a, p *matrix.CSR[float64] }
		var products []rap
		nnz := 0
		for _, lvl := range h.Levels {
			if lvl.P == nil {
				continue
			}
			products = append(products, rap{lvl.R, lvl.A, lvl.P})
			nnz += lvl.A.NNZ()
		}
		serial := bestOfSec(trials, func() {
			for _, pr := range products {
				matrix.TripleProduct(pr.r, pr.a, pr.p)
			}
		})
		pool := kernels.NewPool[float64](cfg.Threads)
		pooled := bestOfSec(trials, func() {
			for _, pr := range products {
				kernels.GalerkinRAP(pr.r, pr.a, pr.p, pool, cfg.Threads)
			}
		})
		pool.Close()
		res.Rows = append(res.Rows, SolveRow{
			Case: c.name, N: a.Rows, NNZ: nnz, Threads: cfg.Threads,
			Sec: pooled, BaselineSec: serial, Speedup: serial / pooled,
			Detail: fmt.Sprintf("%d levels, row-blocked RAP vs two-pass triple product", len(h.Levels)),
		})
	}
	return nil
}

// cgRows times CG to convergence through the tuned operator (with the
// iteration hint, so conversion amortizes) against the fixed-CSR reference
// library on the benchmark of record's two Laplacians.
func cgRows(cfg Config, trials int, res *SolveResult) error {
	n2, n3 := scaledGrid(320, cfg.Scale), scaledGrid(56, cfg.Scale)
	maxIter := 20 * n2
	tuner := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})
	defer tuner.Close()

	if err := cgProblemRows(cfg, trials, res, tuner, "lap2d5", gen.Laplacian2D5pt[float64](n2, n2), maxIter); err != nil {
		return err
	}
	return cgProblemRows(cfg, trials, res, tuner, "lap3d7", gen.Laplacian3D7pt[float64](n3, n3, n3), maxIter)
}

// cgProblemRows adds one system's fixed and tuned rows. The tuned row
// carries the pool's dispatch counters over the timed solves: with the
// solver's vector phases on the operator's pool the workers are still
// spinning when each product arrives (Woken ≪ Pooled); serial phases let
// them park between any two.
func cgProblemRows(cfg Config, trials int, res *SolveResult, tuner *autotune.Tuner[float64], name string, a *matrix.CSR[float64], maxIter int) error {
	const tol = 1e-8
	rows := a.Rows
	b := make([]float64, rows)
	for i := range b {
		b[i] = 1 + float64(i%5)/8
	}
	x := make([]float64, rows)

	// Fixed-format baseline: the reference library's CSR SpMV, the operator
	// a solver links against when there is no tuner in the loop.
	lib := refblas.New[float64](cfg.Threads)
	baseOp := spmvFunc[float64](func(xv, yv []float64) { lib.CSRGeMV(a, xv, yv) })
	var ws solve.CGScratch[float64]
	var stats solve.Stats
	run := func(op solve.Operator[float64]) func() {
		return func() {
			clear(x)
			st, err := solve.CGWith[float64](&ws, op, nil, b, x, tol, maxIter)
			stats = st
			if err != nil {
				panic(err) // SPD Laplacian: breakdown is impossible
			}
		}
	}
	runBase := run(baseOp)
	runBase() // warm
	baseSec := bestOfSec(trials, runBase)
	baseIters := stats.Iterations

	var op *autotune.Operator[float64]
	var err error
	tuneSec := bestOfSec(1, func() { op, _, err = tuner.TuneOpts(a, autotune.TuneOptions{Iterations: maxIter}) })
	if err != nil {
		return fmt.Errorf("bench: solve: tune %s: %w", name, err)
	}
	runTuned := run(op)
	runTuned() // warm
	before := tuner.Stats().Pool
	tunedSec := bestOfSec(trials, runTuned)
	pool := poolDelta(before, tuner.Stats().Pool)

	res.Rows = append(res.Rows, SolveRow{
		Case: "cg/fixed_csr/" + name, N: rows, NNZ: a.NNZ(), Threads: cfg.Threads,
		Sec: baseSec, Iterations: baseIters,
		ItersPerSec: float64(baseIters) / baseSec,
		IterUs:      baseSec * 1e6 / float64(baseIters),
		Detail:      "refblas CSRGeMV baseline",
	})
	res.Rows = append(res.Rows, SolveRow{
		Case: "cg/tuned/" + name, N: rows, NNZ: a.NNZ(), Threads: cfg.Threads,
		Sec: tunedSec, BaselineSec: baseSec, Speedup: baseSec / tunedSec,
		Iterations:  stats.Iterations,
		ItersPerSec: float64(stats.Iterations) / tunedSec,
		IterUs:      tunedSec * 1e6 / float64(stats.Iterations),
		Pool:        pool, WokenShare: wokenShare(pool),
		Detail: fmt.Sprintf("format=%s kernel=%s tune+convert=%.2fms", op.Format(), op.KernelName(), tuneSec*1e3),
	})
	return nil
}

// amgPCGRows times an end-to-end AMG-preconditioned CG solve: hierarchy
// built with the pooled Galerkin products (sharing the tuner's
// workers), then solved with every level bound to the fixed parallel-CSR
// kernel versus SMAT-tuned operators with the iteration hint.
func amgPCGRows(cfg Config, trials int, res *SolveResult) error {
	const tol, maxIter = 1e-8, 100
	n := scaledGrid(300, cfg.Scale)
	a := gen.Laplacian2D9pt[float64](n, n)
	tuner := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})
	defer tuner.Close()
	h, err := amg.SetupPooled(a, amg.Options{}, tuner.Pool())
	if err != nil {
		return fmt.Errorf("bench: amg_pcg setup: %w", err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, a.Rows)
	var stats amg.SolveStats
	run := func() {
		clear(x)
		stats = h.SolvePCG(b, x, tol, maxIter)
	}

	if err := h.Bind(csrFactory(tuner.Pool())); err != nil {
		return err
	}
	run() // warm
	baseSec := bestOfSec(trials, run)
	baseIters := stats.Iterations

	err = h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		op, _, err := tuner.TuneOpts(m, autotune.TuneOptions{Iterations: maxIter})
		if err != nil {
			return nil, err
		}
		return op, nil
	})
	if err != nil {
		return err
	}
	run() // warm
	before := tuner.Stats().Pool
	tunedSec := bestOfSec(trials, run)
	pool := poolDelta(before, tuner.Stats().Pool)

	res.Rows = append(res.Rows, SolveRow{
		Case: "amg_pcg/tuned_bind", N: a.Rows, NNZ: a.NNZ(), Threads: cfg.Threads,
		Sec: tunedSec, BaselineSec: baseSec, Speedup: baseSec / tunedSec,
		Iterations:  stats.Iterations,
		ItersPerSec: float64(stats.Iterations) / tunedSec,
		IterUs:      tunedSec * 1e6 / float64(stats.Iterations),
		Pool:        pool, WokenShare: wokenShare(pool),
		Detail: fmt.Sprintf("%d levels, pooled setup, base iters %d", len(h.Levels), baseIters),
	})
	return nil
}
