package bench

import (
	"fmt"
	"math/rand"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// BatchResult is the batched-serving experiment: per-vector SpMV throughput
// as the batch width grows, across the four format-affinity classes. Width 1
// is the single-vector kernel a tuner at this thread count binds (the serving
// baseline); larger widths run the format's register-tiled SpMM kernel, whose
// per-vector speedup comes from amortising every matrix-element load over the
// whole register tile.
type BatchResult struct {
	Machine Machine    `json:"machine"`
	Threads int        `json:"threads"`
	Scale   float64    `json:"scale"`
	Widths  []int      `json:"widths"`
	Rows    []BatchRow `json:"rows"`
}

// BatchRow is one (affinity class, batch width) measurement.
type BatchRow struct {
	Class        string  `json:"class"`
	Format       string  `json:"format"`
	Kernel       string  `json:"kernel"`
	NNZ          int     `json:"nnz"`
	Width        int     `json:"width"`
	SecPerOp     float64 `json:"sec_per_op"`
	PerVecGFLOPS float64 `json:"per_vector_gflops"`
	// SpeedupVs1 is the per-vector speedup over this class's width-1 row:
	// (width-1 seconds × width) / batched seconds.
	SpeedupVs1 float64 `json:"speedup_vs_k1"`
}

// batchWidths is the width sweep: the single-vector baseline, the two
// sub-tile widths (one lane of two columns, one of three), the four-wide
// tile, the eight-wide tile and a multiple of it.
var batchWidths = []int{1, 2, 3, 4, 8, 16}

// batchWorkloads builds one matrix per format-affinity class (the corpus
// grouping of Table 1): a banded stencil for DIA, a constant-degree graph
// for ELL, a uniform random matrix for CSR, and a power-law graph for COO.
func batchWorkloads(cfg Config) []struct {
	class  string
	format matrix.Format
	m      *matrix.CSR[float64]
} {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := func(n int) int { return max(64, int(float64(n)*cfg.Scale)) }
	return []struct {
		class  string
		format matrix.Format
		m      *matrix.CSR[float64]
	}{
		{"dia-affine", matrix.FormatDIA, gen.Laplacian2D5pt[float64](dim(700), dim(700))},
		{"ell-affine", matrix.FormatELL, gen.ConstantDegree[float64](dim(400000), 8, rng)},
		{"csr-affine", matrix.FormatCSR, gen.RandomUniform[float64](dim(100000), dim(100000), 16, rng)},
		{"coo-affine", matrix.FormatCOO, gen.PreferentialAttachment[float64](dim(200000), 4, rng)},
	}
}

// BatchBench runs the batched multi-vector SpMV experiment and prints the
// per-vector throughput table. Each class is materialised in its affine
// format; width 1 runs, pooled, the single-vector kernel a tuner binds for
// that format — the model's pick in its threaded form, as
// autotune.resolveKernels takes it — larger widths the format's batched SpMM
// kernel pooled, all on warmed plans.
func BatchBench(cfg Config) *BatchResult {
	cfg = cfg.withDefaults()
	res := &BatchResult{Machine: machineRecord(), Threads: cfg.Threads, Scale: cfg.Scale, Widths: batchWidths}

	lib := kernels.NewLibrary[float64]()
	pool := kernels.NewPool[float64](cfg.Threads)
	defer pool.Close()

	for _, w := range batchWorkloads(cfg) {
		mat, err := kernels.Convert(w.m, w.format, 8)
		if err != nil {
			fmt.Fprintf(cfg.Out, "(%s: conversion to %s failed: %v)\n", w.class, w.format, err)
			continue
		}
		nnz := w.m.NNZ()
		flops := kernels.FLOPs(nnz)

		single := lib.Lookup(cfg.Model.Kernels[w.format.String()])
		if single == nil || single.Format != w.format {
			single = lib.Basic(w.format)
		}
		if cfg.Threads > 1 {
			single = lib.Threaded(single)
		}
		batch := lib.BatchFor(w.format)
		if batch == nil {
			fmt.Fprintf(cfg.Out, "(%s: no batched kernel for %s)\n", w.class, w.format)
			continue
		}

		maxK := batchWidths[len(batchWidths)-1]
		xb := make([]float64, w.m.Cols*maxK)
		for i := range xb {
			xb[i] = 1 + float64(i%7)/8
		}
		yb := make([]float64, w.m.Rows*maxK)

		var sec1 float64
		for _, k := range batchWidths {
			var sec float64
			if k == 1 {
				single.RunPooled(mat, xb[:w.m.Cols], yb[:w.m.Rows], pool) // warm plan + workers
				sec = autotune.MeasureSecPerOp(func() {
					single.RunPooled(mat, xb[:w.m.Cols], yb[:w.m.Rows], pool)
				}, cfg.Measure)
				sec1 = sec
			} else {
				bx, by := xb[:w.m.Cols*k], yb[:w.m.Rows*k]
				batch.RunPooled(mat, bx, by, k, pool)
				sec = autotune.MeasureSecPerOp(func() {
					batch.RunPooled(mat, bx, by, k, pool)
				}, cfg.Measure)
			}
			row := BatchRow{
				Class:        w.class,
				Format:       w.format.String(),
				Kernel:       single.Name,
				NNZ:          nnz,
				Width:        k,
				SecPerOp:     sec,
				PerVecGFLOPS: autotune.GFLOPS(flops, sec/float64(k)),
			}
			if k > 1 {
				row.Kernel = batch.Name
			}
			if sec > 0 && sec1 > 0 {
				row.SpeedupVs1 = sec1 * float64(k) / sec
			}
			res.Rows = append(res.Rows, row)
		}
	}

	t := &table{header: []string{"Class", "Format", "Kernel", "k", "Sec/op (us)", "Per-vec GFLOPS", "Speedup vs k=1"}}
	for _, row := range res.Rows {
		t.add(row.Class, row.Format, row.Kernel, fmt.Sprint(row.Width),
			fmt.Sprintf("%.1f", row.SecPerOp*1e6), f2(row.PerVecGFLOPS), fmt.Sprintf("%.2fx", row.SpeedupVs1))
	}
	fmt.Fprintf(cfg.Out, "Batched multi-vector SpMV: per-vector throughput vs batch width (%d threads)\n", cfg.Threads)
	t.print(cfg.Out)
	t.saveTSV(cfg, "batch")
	return res
}
