package bench

import (
	"fmt"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/matrix"
	"smat/internal/refblas"
)

// Figure3Result reproduces Figure 3: per representative matrix, the SpMV
// GFLOPS of each of the four formats (basic implementations), exposing the
// up-to-6× performance variance that motivates format tuning.
type Figure3Result struct {
	Rows []Figure3Row
	// MaxGap is the largest best/worst ratio observed across matrices.
	MaxGap float64
}

// Figure3Row is one representative matrix.
type Figure3Row struct {
	Name   string
	GFLOPS map[matrix.Format]float64
	Best   matrix.Format
	Gap    float64 // best/worst ratio over feasible formats
}

// Figure3 measures the 16 representative matrices in all four formats.
func Figure3(cfg Config) *Figure3Result {
	cfg = cfg.withDefaults()
	labeler := autotune.NewLabeler(cfg.choice(), cfg.Threads, cfg.Measure)
	res := &Figure3Result{}
	for _, e := range corpus.Representatives(cfg.Scale) {
		lbl := labeler.Label(e.Matrix())
		row := Figure3Row{Name: e.Name, GFLOPS: lbl.GFLOPS, Best: lbl.Best}
		lo, hi := 0.0, 0.0
		for _, g := range lbl.GFLOPS {
			if lo == 0 || g < lo {
				lo = g
			}
			if g > hi {
				hi = g
			}
		}
		if lo > 0 {
			row.Gap = hi / lo
		}
		if row.Gap > res.MaxGap {
			res.MaxGap = row.Gap
		}
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Matrix", "CSR", "COO", "DIA", "ELL", "Best", "Gap"}}
	for _, row := range res.Rows {
		cell := func(f matrix.Format) string {
			if g, ok := row.GFLOPS[f]; ok {
				return f2(g)
			}
			return "-"
		}
		t.add(row.Name, cell(matrix.FormatCSR), cell(matrix.FormatCOO),
			cell(matrix.FormatDIA), cell(matrix.FormatELL),
			row.Best.String(), f2(row.Gap)+"x")
	}
	fmt.Fprintln(cfg.Out, "Figure 3: performance variance among storage formats (GFLOPS)")
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "largest best/worst gap: %.1fx\n", res.MaxGap)
	return res
}

// Figure9Result reproduces Figure 9: SMAT-tuned SpMV GFLOPS per
// representative matrix, single- and double-precision, on two "platforms"
// (thread configurations).
type Figure9Result struct {
	Rows []Figure9Row
	// Peaks: the headline numbers (max GFLOPS per precision/platform).
	PeakSPA, PeakDPA, PeakSPB, PeakDPB float64
}

// Figure9Row is one representative matrix.
type Figure9Row struct {
	Name     string
	SPA, DPA float64 // platform A (Threads)
	SPB, DPB float64 // platform B (ThreadsB)
	FormatA  matrix.Format
}

// Figure9 tunes each representative with the model and measures the tuned
// operator in float32 and float64 on both thread configurations.
func Figure9(cfg Config) *Figure9Result {
	cfg = cfg.withDefaults()
	res := &Figure9Result{}
	for _, e := range corpus.Representatives(cfg.Scale) {
		m64 := e.Matrix()
		m32 := castCSR(m64)
		row := Figure9Row{Name: e.Name}
		for _, p := range []struct {
			threads int
			sp, dp  *float64
		}{
			{cfg.Threads, &row.SPA, &row.DPA},
			{cfg.ThreadsB, &row.SPB, &row.DPB},
		} {
			t64 := autotune.New[float64](cfg.Model, autotune.Config{Threads: p.threads})
			if op, _, err := t64.Tune(m64); err == nil {
				*p.dp = measureOperator[float64](op, m64.Cols, m64.Rows, m64.NNZ(), cfg.Measure)
				if p.threads == cfg.Threads {
					row.FormatA = op.Format()
				}
			}
			t32 := autotune.New[float32](cfg.Model, autotune.Config{Threads: p.threads})
			if op, _, err := t32.Tune(m32); err == nil {
				*p.sp = measureOperator[float32](op, m32.Cols, m32.Rows, m32.NNZ(), cfg.Measure)
			}
		}
		res.PeakSPA = max(res.PeakSPA, row.SPA)
		res.PeakDPA = max(res.PeakDPA, row.DPA)
		res.PeakSPB = max(res.PeakSPB, row.SPB)
		res.PeakDPB = max(res.PeakDPB, row.DPB)
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Matrix", "SP(A)", "DP(A)", "SP(B)", "DP(B)", "Format(A)"}}
	for _, row := range res.Rows {
		t.add(row.Name, f2(row.SPA), f2(row.DPA), f2(row.SPB), f2(row.DPB), row.FormatA.String())
	}
	fmt.Fprintf(cfg.Out, "Figure 9: SMAT performance (GFLOPS); platform A = %d threads, platform B = %d threads\n",
		cfg.Threads, cfg.ThreadsB)
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "peaks: SP(A)=%.1f DP(A)=%.1f SP(B)=%.1f DP(B)=%.1f GFLOPS\n",
		res.PeakSPA, res.PeakDPA, res.PeakSPB, res.PeakDPB)
	return res
}

// Figure10Result reproduces Figure 10: SMAT versus the fixed-format
// reference library (the MKL stand-in), single- and double-precision, plus
// the evaluation-set average speedup the paper reports (3.2× SP, 3.8× DP on
// real UF matrices; shapes, not absolutes, are the target here).
type Figure10Result struct {
	Rows []Figure10Row
	// Eval-set aggregate speedups (geometric means).
	AvgSP, AvgDP float64
}

// Figure10Row is one representative matrix.
type Figure10Row struct {
	Name                 string
	SmatSP, RefSP        float64
	SmatDP, RefDP        float64
	SpeedupSP, SpeedupDP float64
}

// Figure10 compares tuned SMAT operators against the reference library's
// best fixed-format entry point on the representatives, then aggregates
// speedups over a sample of the held-out evaluation split.
func Figure10(cfg Config) *Figure10Result {
	cfg = cfg.withDefaults()
	res := &Figure10Result{}
	for _, e := range corpus.Representatives(cfg.Scale) {
		row := figure10Row(cfg, e)
		res.Rows = append(res.Rows, row)
	}
	// Aggregate over the evaluation split.
	c := corpus.New(cfg.Scale, cfg.Seed)
	_, eval := c.Split(len(c.Entries)*6/7, cfg.Seed)
	sumSP, sumDP, n := 0.0, 0.0, 0
	for i, e := range eval {
		if cfg.Stride > 1 && i%cfg.Stride != 0 {
			continue
		}
		row := figure10Row(cfg, e)
		if row.SpeedupSP > 0 && row.SpeedupDP > 0 {
			sumSP += row.SpeedupSP
			sumDP += row.SpeedupDP
			n++
		}
	}
	if n > 0 {
		res.AvgSP = sumSP / float64(n)
		res.AvgDP = sumDP / float64(n)
	}

	t := &table{header: []string{"Matrix", "SMAT-SP", "Ref-SP", "Speedup-SP", "SMAT-DP", "Ref-DP", "Speedup-DP"}}
	for _, row := range res.Rows {
		t.add(row.Name, f2(row.SmatSP), f2(row.RefSP), f2(row.SpeedupSP)+"x",
			f2(row.SmatDP), f2(row.RefDP), f2(row.SpeedupDP)+"x")
	}
	fmt.Fprintln(cfg.Out, "Figure 10: SMAT vs fixed-format reference library (GFLOPS)")
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "evaluation-set average speedup over %d matrices: SP %.2fx, DP %.2fx\n",
		n, res.AvgSP, res.AvgDP)
	return res
}

func figure10Row(cfg Config, e *corpus.Entry) Figure10Row {
	m64 := e.Matrix()
	m32 := castCSR(m64)
	row := Figure10Row{Name: e.Name}

	measure := func(op func()) float64 {
		return autotune.MeasureSecPerOp(op, cfg.Measure)
	}
	// Double precision.
	t64 := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})
	if op, _, err := t64.Tune(m64); err == nil {
		row.SmatDP = measureOperator[float64](op, m64.Cols, m64.Rows, m64.NNZ(), cfg.Measure)
	}
	ref64 := refblas.New[float64](cfg.Threads)
	if _, g := ref64.BestFixedFormat(m64, cfg.Model.MaxFill, measure); len(g) > 0 {
		for _, v := range g {
			row.RefDP = max(row.RefDP, v)
		}
	}
	// Single precision.
	t32 := autotune.New[float32](cfg.Model, autotune.Config{Threads: cfg.Threads})
	if op, _, err := t32.Tune(m32); err == nil {
		row.SmatSP = measureOperator[float32](op, m32.Cols, m32.Rows, m32.NNZ(), cfg.Measure)
	}
	ref32 := refblas.New[float32](cfg.Threads)
	if _, g := ref32.BestFixedFormat(m32, cfg.Model.MaxFill, measure); len(g) > 0 {
		for _, v := range g {
			row.RefSP = max(row.RefSP, v)
		}
	}
	if row.RefSP > 0 {
		row.SpeedupSP = row.SmatSP / row.RefSP
	}
	if row.RefDP > 0 {
		row.SpeedupDP = row.SmatDP / row.RefDP
	}
	return row
}
