// Command smat-amg solves a Laplacian problem with the algebraic multigrid
// solver, with and without SMAT-tuned SpMV operators, printing Table 4-style
// rows — the paper's Hypre integration as a tool.
//
// Usage:
//
//	smat-amg [-model model.json] [-problem 7pt|9pt] [-n 50] [-coarsen cljp|rugeL]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"smat"
	"smat/internal/amg"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

type kernelOp struct {
	k    *kernels.Kernel[float64]
	mat  *kernels.Mat[float64]
	pool *kernels.Pool[float64]
}

func (o kernelOp) MulVec(x, y []float64) { o.k.RunPooled(o.mat, x, y, o.pool) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("smat-amg: ")

	var (
		modelPath = flag.String("model", "", "model JSON to load (default: the built-in model.json)")
		problem   = flag.String("problem", "7pt", "problem stencil: 7pt (3D) or 9pt (2D)")
		n         = flag.Int("n", 50, "grid points per side")
		coarsen   = flag.String("coarsen", "cljp", "coarsening: cljp or rugeL")
		threads   = flag.Int("threads", 0, "threads (0 = GOMAXPROCS)")
		tol       = flag.Float64("tol", 1e-8, "relative residual tolerance")
	)
	flag.Parse()

	model := smat.DefaultModel()
	if *modelPath != "" {
		m, err := smat.LoadModelFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model = m
	}

	var a *matrix.CSR[float64]
	switch *problem {
	case "7pt":
		a = gen.Laplacian3D7pt[float64](*n, *n, *n)
	case "9pt":
		a = gen.Laplacian2D9pt[float64](*n, *n)
	default:
		log.Fatalf("unknown problem %q", *problem)
	}
	opts := amg.Options{}
	switch *coarsen {
	case "cljp":
		opts.Coarsening = amg.CLJP
	case "rugeL":
		opts.Coarsening = amg.RugeStueben
	default:
		log.Fatalf("unknown coarsening %q", *coarsen)
	}

	fmt.Printf("problem: %s Laplacian, %d rows, %d nonzeros, %s coarsening\n",
		*problem, a.Rows, a.NNZ(), opts.Coarsening)
	start := time.Now()
	h, err := amg.SetupPooled(a, opts, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("setup: %d levels, operator complexity %.2f, %s\n",
		len(h.Levels), h.OperatorComplexity(), time.Since(start).Round(time.Millisecond))

	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	solve := func() (time.Duration, amg.SolveStats) {
		x := make([]float64, a.Rows)
		st := time.Now()
		stats := h.Solve(b, x, *tol, 200)
		return time.Since(st), stats
	}

	// Baseline: fixed parallel CSR everywhere (the Hypre proxy).
	lib := kernels.NewLibrary[float64]()
	csr := lib.Lookup("csr_parallel")
	pool := kernels.NewPool[float64](*threads)
	if err := h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		return kernelOp{k: csr, mat: &kernels.Mat[float64]{Format: matrix.FormatCSR, CSR: m}, pool: pool}, nil
	}); err != nil {
		log.Fatal(err)
	}
	solve() // warm up
	dBase, sBase := solve()
	pool.Close()
	fmt.Printf("Hypre-proxy AMG: %8.1f ms  (%d V-cycles, relres %.2e)\n",
		float64(dBase.Microseconds())/1000, sBase.Iterations, sBase.RelResidual)

	// SMAT: tuned operator per level. The decision cache dedups tuning for
	// structurally similar coarse levels.
	tuner := autotune.New[float64](model, autotune.Config{Threads: *threads, CacheSize: 512})
	tuneStart := time.Now()
	level := 0
	if err := h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		op, dec, err := tuner.Tune(m)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  level operator %2d: %d rows: %s\n", level, m.Rows, dec)
		level++
		return op, nil
	}); err != nil {
		log.Fatal(err)
	}
	st := tuner.Stats()
	fmt.Printf("SMAT tuning of all operators: %s (decision cache: %d hits, %d misses)\n",
		time.Since(tuneStart).Round(time.Millisecond), st.Hits, st.Misses)
	solve() // warm up
	dSmat, sSmat := solve()
	fmt.Printf("SMAT AMG:        %8.1f ms  (%d V-cycles, relres %.2e)\n",
		float64(dSmat.Microseconds())/1000, sSmat.Iterations, sSmat.RelResidual)
	fmt.Printf("speedup: %.2fx\n", float64(dBase.Microseconds())/float64(dSmat.Microseconds()))
}
