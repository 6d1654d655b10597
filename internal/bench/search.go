package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// SearchBenchResult compares the fixed kernel menu against the parameterized
// kernel search on a workload suite spanning every format family: per matrix,
// the best rate any zero-parameter kernel reaches on the default conversions
// versus the best rate the full parameter walk reaches over the same
// measurement set. Searched ≥ fixed holds per matrix by construction (the
// walk's candidate set contains the fixed menu); the interesting numbers are
// how often and by how much the searched parameters pull ahead.
type SearchBenchResult struct {
	Rows []SearchBenchRow
	// Geomeans over the workload suite (GFLOPS, and the searched/fixed ratio).
	FixedGeomean    float64
	SearchedGeomean float64
	SpeedupGeomean  float64
	// Histogram counts, per format, how often each winning parameter point
	// was chosen across the suite ("default" = the fixed menu won).
	Histogram map[string]map[string]int
}

// SearchBenchRow is one workload matrix.
type SearchBenchRow struct {
	Workload string
	// Fixed and Searched are the best GFLOPS over all formats with the fixed
	// menu and with the searched parameters; Speedup = Searched/Fixed.
	Fixed    float64
	Searched float64
	Speedup  float64
	// BestFormat, BestKernel and Params describe the searched winner.
	BestFormat string
	BestKernel string
	Params     string
	// Pruned counts the candidates the feature guards skipped unmeasured.
	Pruned int
}

// searchFormats is the space the experiment walks: the basic four plus the
// opt-in HYB, whose conversion-level knob (the width cut) joins the unroll
// depths in the parameter space.
var searchFormats = []matrix.Format{
	matrix.FormatCSR, matrix.FormatCOO, matrix.FormatDIA, matrix.FormatELL,
	matrix.FormatHYB,
}

// Search runs the parameterized-search experiment.
func Search(cfg Config) *SearchBenchResult {
	cfg = cfg.withDefaults()
	lib := kernels.NewLibrary[float64]()
	lib.RegisterHYB()
	rng := rand.New(rand.NewSource(cfg.Seed))

	dim := func(n int) int {
		d := int(float64(n) * cfg.Scale)
		if d < 64 {
			d = 64
		}
		return d
	}
	workloads := []struct {
		name  string
		build func() *matrix.CSR[float64]
	}{
		{"stencil-5pt", func() *matrix.CSR[float64] {
			k := dim(400)
			return gen.Laplacian2D5pt[float64](k, k)
		}},
		{"constant-degree", func() *matrix.CSR[float64] {
			return gen.ConstantDegree[float64](dim(100000), 4, rng)
		}},
		{"road-network", func() *matrix.CSR[float64] {
			return gen.RoadNetwork[float64](dim(120000), rng)
		}},
		{"random-uniform", func() *matrix.CSR[float64] {
			return gen.RandomUniform[float64](dim(30000), dim(30000), 40, rng)
		}},
		{"skewed-regular", func() *matrix.CSR[float64] {
			return skewedRegular(dim(120000), rng)
		}},
		{"block-4x4", func() *matrix.CSR[float64] {
			return blockStructured(dim(30000), rng)
		}},
	}

	res := &SearchBenchResult{Histogram: map[string]map[string]int{}}
	for _, w := range workloads {
		m := w.build()
		ft := features.Extract(m)
		row := SearchBenchRow{Workload: w.name}
		for _, f := range searchFormats {
			walk := autotune.SearchMatrixParams(lib, m, &ft, f, cfg.Threads, cfg.Measure)
			row.Pruned += len(walk.Pruned)
			if walk.Kernel == "" {
				continue
			}
			if walk.FixedGFLOPS > row.Fixed {
				row.Fixed = walk.FixedGFLOPS
			}
			if walk.GFLOPS > row.Searched {
				row.Searched = walk.GFLOPS
				row.BestFormat = f.String()
				row.BestKernel = walk.Kernel
				row.Params = walk.Params.String()
			}
			h := res.Histogram[f.String()]
			if h == nil {
				h = map[string]int{}
				res.Histogram[f.String()] = h
			}
			h[walk.Params.String()]++
		}
		if row.Fixed > 0 {
			row.Speedup = row.Searched / row.Fixed
		}
		res.Rows = append(res.Rows, row)
	}
	res.FixedGeomean = geomeanOf(res.Rows, func(r SearchBenchRow) float64 { return r.Fixed })
	res.SearchedGeomean = geomeanOf(res.Rows, func(r SearchBenchRow) float64 { return r.Searched })
	res.SpeedupGeomean = geomeanOf(res.Rows, func(r SearchBenchRow) float64 { return r.Speedup })

	t := &table{header: []string{"Workload", "Fixed", "Searched", "Speedup", "Best", "Kernel", "Params"}}
	for _, r := range res.Rows {
		t.add(r.Workload, f2(r.Fixed), f2(r.Searched), fmt.Sprintf("%.2fx", r.Speedup),
			r.BestFormat, r.BestKernel, r.Params)
	}
	fmt.Fprintln(cfg.Out, "Parameter search: fixed kernel menu vs searched parameters (best GFLOPS over all formats)")
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "geomean: fixed %.2f, searched %.2f GFLOPS (%.2fx)\n",
		res.FixedGeomean, res.SearchedGeomean, res.SpeedupGeomean)
	fmt.Fprintln(cfg.Out, "winning parameters per format:")
	var fmts []string
	for f := range res.Histogram {
		fmts = append(fmts, f)
	}
	sort.Strings(fmts)
	for _, f := range fmts {
		var points []string
		for p := range res.Histogram[f] {
			points = append(points, p)
		}
		sort.Strings(points)
		for _, p := range points {
			fmt.Fprintf(cfg.Out, "  %-5s %-12s %d\n", f, p, res.Histogram[f][p])
		}
	}
	t.saveTSV(cfg, "search")
	return res
}

// geomeanOf is the geometric mean of pick over rows, ignoring non-positive
// values (infeasible workloads contribute nothing rather than zeroing the
// mean).
func geomeanOf(rows []SearchBenchRow, pick func(SearchBenchRow) float64) float64 {
	sum, n := 0.0, 0
	for _, r := range rows {
		if v := pick(r); v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
