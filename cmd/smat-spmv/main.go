// Command smat-spmv runs the tuned SpMV on a Matrix Market file and reports
// the decision SMAT made and the measured performance — the unified
// SMAT_xCSR_SpMV interface as a tool.
//
// Usage:
//
//	smat-spmv [-model model.json] [-iters 100] [-threads n] matrix.mtx
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"smat"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smat-spmv: ")

	var (
		modelPath = flag.String("model", "", "model JSON to load (default: the built-in model.json)")
		iters     = flag.Int("iters", 100, "SpMV iterations to time")
		threads   = flag.Int("threads", 0, "threads (0 = model/GOMAXPROCS)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: smat-spmv [flags] matrix.mtx")
	}

	model := smat.DefaultModel()
	if *modelPath != "" {
		m, err := smat.LoadModelFile(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		model = m
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	a, err := smat.ReadMatrixMarket(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	rows, cols := a.Dims()
	fmt.Printf("matrix: %d x %d, %d nonzeros\n", rows, cols, a.NNZ())
	feat := a.Features()
	fmt.Printf("features: %s\n", feat.String())

	tuner := smat.NewTuner[float64](model, smat.WithThreads(*threads))
	start := time.Now()
	op, err := tuner.Tune(a)
	if err != nil {
		log.Fatal(err)
	}
	tuneTime := time.Since(start)
	// The decision's overhead ratio exists only where the tune measured its
	// unit (the fallback; an iteration hint): a predicted one runs no kernel.
	fmt.Printf("decision: %s\n", op.Decision())
	fmt.Printf("tuning: %s\n", tuneTime.Round(time.Microsecond))

	x := make([]float64, cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	op.MulVec(x, y) // warm up
	start = time.Now()
	for i := 0; i < *iters; i++ {
		op.MulVec(x, y)
	}
	sec := time.Since(start).Seconds() / float64(*iters)
	fmt.Printf("performance: %.2f GFLOPS (%.3g s per SpMV over %d iterations)\n",
		float64(2*a.NNZ())/sec/1e9, sec, *iters)
	st := tuner.Stats()
	fmt.Printf("decision cache: %d hits, %d misses, %d shared, %d/%d entries\n",
		st.Hits, st.Misses, st.Shared, st.Size, st.Capacity)
	fmt.Printf("worker pool: %d pooled dispatches (%d woke a parked worker, %d chunks no worker had claimed ran on the caller), %d ran on the caller (pool busy), %d calls serial under the work cutoff, %d workers warmed as a tune started\n",
		st.Pool.Pooled, st.Pool.Woken, st.Pool.Reclaimed, st.Pool.Overflow, st.Pool.SerialCutoff, st.Pool.Warmed)
}
