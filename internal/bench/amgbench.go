package bench

import (
	"fmt"

	"smat/internal/amg"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// Figure1Result reproduces Figure 1: the sequence of grid operators an AMG
// setup generates from one input matrix, with the per-format SpMV
// performance at every level — demonstrating that the optimal format changes
// across levels of a single application run.
type Figure1Result struct {
	Rows []Figure1Row
}

// Figure1Row is one AMG level.
type Figure1Row struct {
	Level  int
	Rows   int
	NNZ    int
	GFLOPS map[matrix.Format]float64
	Best   matrix.Format
}

// Figure1 builds an AMG hierarchy on a 3D 7-point Laplacian (the paper's
// Figure 1 input) and labels every level operator.
func Figure1(cfg Config) (*Figure1Result, error) {
	cfg = cfg.withDefaults()
	n := scaledGrid(34, cfg.Scale)
	a := gen.Laplacian3D7pt[float64](n, n, n)
	h, err := amg.SetupPooled(a, amg.Options{Coarsening: amg.CLJP, Seed: cfg.Seed}, nil)
	if err != nil {
		return nil, err
	}
	labeler := autotune.NewLabeler(cfg.Model.Class(cfg.Threads).Choice(), cfg.Threads, cfg.Measure)
	defer labeler.Close()
	res := &Figure1Result{}
	for li, lvl := range h.Levels {
		lbl := labeler.Label(lvl.A)
		res.Rows = append(res.Rows, Figure1Row{
			Level:  li,
			Rows:   lvl.A.Rows,
			NNZ:    lvl.A.NNZ(),
			GFLOPS: lbl.GFLOPS,
			Best:   lbl.Best,
		})
	}

	t := &table{header: []string{"Level", "Rows", "NNZ", "CSR", "COO", "DIA", "ELL", "Best"}}
	for _, row := range res.Rows {
		cell := func(f matrix.Format) string {
			if g, ok := row.GFLOPS[f]; ok {
				return f2(g)
			}
			return "-"
		}
		t.add(fmt.Sprint(row.Level), fmt.Sprint(row.Rows), fmt.Sprint(row.NNZ),
			cell(matrix.FormatCSR), cell(matrix.FormatCOO),
			cell(matrix.FormatDIA), cell(matrix.FormatELL), row.Best.String())
	}
	fmt.Fprintln(cfg.Out, "Figure 1: dynamic sparse structures across AMG levels (GFLOPS per format)")
	t.print(cfg.Out)
	return res, nil
}

// Table4Result reproduces Table 4: the AMG solve-phase time with plain-CSR
// SpMV (the Hypre proxy) versus SMAT-tuned SpMV, for the paper's two
// configurations (cljp coarsening on a 3D 7-point problem, Ruge–Stüben on a
// 2D 9-point problem).
type Table4Result struct {
	Rows []Table4Row `json:"rows"`
}

// Table4Row is one solver configuration.
type Table4Row struct {
	Name      string   `json:"name"`
	Rows      int      `json:"rows"`
	Levels    int      `json:"levels"`
	BaseMS    float64  `json:"base_ms"` // plain-CSR solve time
	SmatMS    float64  `json:"smat_ms"` // SMAT-bound solve time
	TuneMS    float64  `json:"tune_ms"` // one-time SMAT tuning of all level operators
	Speedup   float64  `json:"speedup"`
	BaseIters int      `json:"base_iters"`
	SmatIters int      `json:"smat_iters"`
	Formats   []string `json:"formats"` // chosen format per level operator A_l
}

// csrFactory binds levels to the parallel CSR kernel on pool: the
// fixed-format baseline, standing in for Hypre's native CSR SpMV.
func csrFactory(pool *kernels.Pool[float64]) amg.OperatorFactory[float64] {
	k := kernels.NewLibrary[float64]().Lookup("csr_parallel")
	return func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		mat := &kernels.Mat[float64]{Format: matrix.FormatCSR, CSR: m}
		return spmvFunc[float64](func(x, y []float64) { k.RunPooled(mat, x, y, pool) }), nil
	}
}

type spmvFunc[T matrix.Float] func(x, y []T)

func (f spmvFunc[T]) MulVec(x, y []T) { f(x, y) }

// Table4 runs both AMG configurations to a fixed tolerance with each SpMV
// binding and reports solve-phase times.
func Table4(cfg Config) (*Table4Result, error) {
	cfg = cfg.withDefaults()
	res := &Table4Result{}
	// A solve is one timed run, not a window of repeated calls: best of at
	// least three, each after a GC.
	trials := max(cfg.Measure.Trials, 3)
	configs := []struct {
		name  string
		build func() *matrix.CSR[float64]
		opts  amg.Options
	}{
		{
			// Paper: "cljp 7pt 50" — 50³ = 125K rows.
			name: "cljp_7pt",
			build: func() *matrix.CSR[float64] {
				n := scaledGrid(50, cfg.Scale)
				return gen.Laplacian3D7pt[float64](n, n, n)
			},
			opts: amg.Options{Coarsening: amg.CLJP, Seed: cfg.Seed},
		},
		{
			// Paper: "rugeL 9pt 500" — 500² = 250K rows.
			name:  "rugeL_9pt",
			build: func() *matrix.CSR[float64] { n := scaledGrid(500, cfg.Scale); return gen.Laplacian2D9pt[float64](n, n) },
			opts:  amg.Options{Coarsening: amg.RugeStueben},
		},
	}
	for _, c := range configs {
		a := c.build()
		h, err := amg.SetupPooled(a, c.opts, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s setup: %w", c.name, err)
		}
		row := Table4Row{Name: c.name, Rows: a.Rows, Levels: len(h.Levels)}

		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		x := make([]float64, a.Rows)
		var iters int
		solve := func() {
			clear(x)
			iters = h.Solve(b, x, 1e-8, 100).Iterations
		}

		pool := kernels.NewPool[float64](cfg.Threads)
		if err := h.Bind(csrFactory(pool)); err != nil {
			return nil, err
		}
		row.BaseMS = bestOfSec(trials, solve) * 1e3
		pool.Close()
		row.BaseIters = iters

		tuner := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})
		var formats []string
		row.TuneMS = bestOfSec(1, func() {
			err = h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
				op, _, err := tuner.Tune(m)
				if err != nil {
					return nil, err
				}
				formats = append(formats, op.Format().String())
				return op, nil
			})
		}) * 1e3
		if err != nil {
			tuner.Close()
			return nil, err
		}
		// Bind visits A, P, R per level; keep only the A formats (every
		// third entry starting at 0 for non-coarsest levels, last is the
		// coarsest A).
		for i := 0; i < len(formats); i += 3 {
			row.Formats = append(row.Formats, formats[i])
		}
		row.SmatMS = bestOfSec(trials, solve) * 1e3
		row.SmatIters = iters
		tuner.Close()
		row.Speedup = row.BaseMS / row.SmatMS
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Coarsen", "Rows", "Levels", "Hypre-proxy(ms)", "SMAT-AMG(ms)", "Speedup", "Tune(ms)", "A-formats"}}
	for _, row := range res.Rows {
		t.add(row.Name, fmt.Sprint(row.Rows), fmt.Sprint(row.Levels),
			f2(row.BaseMS), f2(row.SmatMS), f2(row.Speedup)+"x", f2(row.TuneMS),
			fmt.Sprint(row.Formats))
	}
	fmt.Fprintln(cfg.Out, "Table 4: SMAT-based AMG solve time vs plain-CSR AMG")
	t.print(cfg.Out)
	return res, nil
}

// scaledGrid scales a per-side grid dimension by the cube/square root-free
// linear factor, with a floor that keeps AMG meaningful.
func scaledGrid(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 12 {
		n = 12
	}
	return n
}
