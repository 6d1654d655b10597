package bench

import (
	"fmt"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/kernels"
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
	res := &Figure3Result{}
	label(cfg, cfg.Threads, corpus.Representatives(cfg.Scale), func(e *corpus.Entry, _ *matrix.CSR[float64], lbl autotune.Label) {
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
		res.MaxGap = max(res.MaxGap, row.Gap)
		res.Rows = append(res.Rows, row)
	})

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
		row.DPA, row.FormatA = tunedGFLOPS(cfg, m64, cfg.Threads)
		row.SPA, _ = tunedGFLOPS(cfg, m32, cfg.Threads)
		row.DPB, _ = tunedGFLOPS(cfg, m64, cfg.ThreadsB)
		row.SPB, _ = tunedGFLOPS(cfg, m32, cfg.ThreadsB)
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
		res.Rows = append(res.Rows, figure10Row(cfg, e))
	}
	sumSP, sumDP, n := 0.0, 0.0, 0
	for _, e := range heldOut(cfg) {
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

// figure10Row measures one matrix in both precisions: the tuned operator
// (tunedGFLOPS) against the reference library's best fixed format.
func figure10Row(cfg Config, e *corpus.Entry) Figure10Row {
	m64 := e.Matrix()
	m32 := castCSR(m64)
	row := Figure10Row{Name: e.Name}
	row.SmatDP, _ = tunedGFLOPS(cfg, m64, cfg.Threads)
	row.SmatSP, _ = tunedGFLOPS(cfg, m32, cfg.Threads)
	row.RefDP = refGFLOPS(cfg, m64)
	row.RefSP = refGFLOPS(cfg, m32)
	if row.RefSP > 0 {
		row.SpeedupSP = row.SmatSP / row.RefSP
	}
	if row.RefDP > 0 {
		row.SpeedupDP = row.SmatDP / row.RefDP
	}
	return row
}

// tunedGFLOPS tunes m with cfg.Model on a fresh tuner at threads, times the
// tuned operator, and closes the tuner: the GFLOPS and format of Figures 9
// and 10 for one matrix and precision; 0 and CSR when the tune fails.
func tunedGFLOPS[T matrix.Float](cfg Config, m *matrix.CSR[T], threads int) (float64, matrix.Format) {
	t := autotune.New[T](cfg.Model, autotune.Config{Threads: threads})
	defer t.Close()
	op, _, err := t.Tune(m)
	if err != nil {
		return 0, matrix.FormatCSR
	}
	x := make([]T, m.Cols)
	for i := range x {
		x[i] = T(1) + T(i%7)/8
	}
	y := make([]T, m.Rows)
	sec := autotune.MeasureSecPerOp(func() { op.MulVec(x, y) }, cfg.Measure)
	return autotune.GFLOPS(kernels.FLOPs(m.NNZ()), sec), op.Format()
}

// refGFLOPS is the reference library's best fixed-format GFLOPS on m at
// cfg.Threads (0 when no format is feasible).
func refGFLOPS[T matrix.Float](cfg Config, m *matrix.CSR[T]) float64 {
	measure := func(op func()) float64 { return autotune.MeasureSecPerOp(op, cfg.Measure) }
	best, g := refblas.New[T](cfg.Threads).BestFixedFormat(m, cfg.Model.MaxFill, measure)
	return g[best]
}
