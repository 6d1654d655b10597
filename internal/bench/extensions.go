package bench

import (
	"fmt"
	"math/rand"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// ExtensionsResult measures the opt-in extension format (HYB) against
// the basic four on their home-turf workloads — the quantitative half of the
// paper's extensibility claim (the qualitative half being that adding them
// touched only the registry).
type ExtensionsResult struct {
	Rows []ExtensionsRow
}

// ExtensionsRow is one workload.
type ExtensionsRow struct {
	Workload string
	// GFLOPS per format (best kernel of each); missing formats were
	// infeasible under the fill guard.
	GFLOPS map[matrix.Format]string
	Best   matrix.Format
}

// Extensions measures every registered format (including HYB) on a
// skewed-regular workload (HYB territory), a block-structured workload and a
// stencil (DIA territory).
func Extensions(cfg Config) *ExtensionsResult {
	cfg = cfg.withDefaults()
	lib := kernels.NewLibrary[float64]()
	lib.RegisterHYB()
	pool := kernels.NewPool[float64](cfg.Threads)
	defer pool.Close()
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
		{"skewed-regular (HYB territory)", func() *matrix.CSR[float64] {
			return skewedRegular(dim(120000), rng)
		}},
		{"block-structured", func() *matrix.CSR[float64] {
			return blockStructured(dim(30000), rng)
		}},
		{"stencil (DIA territory)", func() *matrix.CSR[float64] {
			k := dim(400)
			return gen.Laplacian2D5pt[float64](k, k)
		}},
	}
	formats := append(append([]matrix.Format{}, matrix.Formats[:]...), matrix.FormatHYB)

	res := &ExtensionsResult{}
	for _, w := range workloads {
		m := w.build()
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, m.Rows)
		flops := kernels.FLOPs(m.NNZ())
		row := ExtensionsRow{Workload: w.name, GFLOPS: map[matrix.Format]string{}}
		bestG := 0.0
		for _, f := range formats {
			mat, err := kernels.Convert(m, f, 8)
			if err != nil {
				row.GFLOPS[f] = "-"
				continue
			}
			best := 0.0
			for _, k := range lib.ForFormat(f) {
				sec := autotune.MeasureSecPerOp(func() { k.RunPooled(mat, x, y, pool) }, cfg.Measure)
				if g := autotune.GFLOPS(flops, sec); g > best {
					best = g
				}
			}
			row.GFLOPS[f] = f2(best)
			if best > bestG {
				bestG = best
				row.Best = f
			}
		}
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Workload", "CSR", "COO", "DIA", "ELL", "HYB", "Best"}}
	for _, row := range res.Rows {
		t.add(row.Workload,
			row.GFLOPS[matrix.FormatCSR], row.GFLOPS[matrix.FormatCOO],
			row.GFLOPS[matrix.FormatDIA], row.GFLOPS[matrix.FormatELL],
			row.GFLOPS[matrix.FormatHYB], row.Best.String())
	}
	fmt.Fprintln(cfg.Out, "Extensions: HYB vs the basic formats (GFLOPS, best kernel per format)")
	t.print(cfg.Out)
	return res
}

// skewedRegular builds mostly degree-2 near-band rows plus rare heavy rows.
func skewedRegular(n int, rng *rand.Rand) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for r := 0; r < n; r++ {
		if r%2000 == 0 {
			for _, c := range sampleCols(n, 1500, rng) {
				ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: 1})
			}
			continue
		}
		c1 := (r + 1 + rng.Intn(64)) % n
		c2 := (r + 128 + rng.Intn(64)) % n
		ts = append(ts, matrix.Triple[float64]{Row: r, Col: c1, Val: 1})
		if c2 != c1 {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: c2, Val: 1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// blockStructured builds a banded matrix of dense 4x4 blocks.
func blockStructured(n int, rng *rand.Rand) *matrix.CSR[float64] {
	nb := n / 4
	var ts []matrix.Triple[float64]
	for bi := 0; bi < nb; bi++ {
		for _, off := range []int{-2, 0, 2} {
			bj := bi + off + rng.Intn(2)
			if bj < 0 || bj >= nb {
				continue
			}
			for lr := 0; lr < 4; lr++ {
				for lc := 0; lc < 4; lc++ {
					ts = append(ts, matrix.Triple[float64]{Row: bi*4 + lr, Col: bj*4 + lc, Val: 1})
				}
			}
		}
	}
	m, err := matrix.FromTriples(nb*4, nb*4, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func sampleCols(n, k int, rng *rand.Rand) []int {
	seen := map[int]bool{}
	out := make([]int, 0, k)
	for len(out) < k && len(out) < n {
		c := rng.Intn(n)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}
