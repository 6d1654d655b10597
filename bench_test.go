// Benchmarks regenerating the paper's evaluation under testing.B: one
// benchmark per table and figure (see DESIGN.md's experiment index). Each
// iteration runs the corresponding internal/bench experiment at a reduced
// scale so `go test -bench=.` completes on a laptop; cmd/smat-bench runs the
// same experiments at full scale with printed tables.
package smat_test

import (
	"testing"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/bench"
)

// benchCfg returns the shared reduced-scale configuration.
func benchCfg(b *testing.B) bench.Config {
	b.Helper()
	return bench.Config{
		Scale:   0.05,
		Threads: 0,
		Model:   smat.DefaultModel(),
		Measure: autotune.MeasureOptions{MinTime: 200 * time.Microsecond, Trials: 1},
		Stride:  25,
		Seed:    1,
	}
}

// BenchmarkTable1AffinityLabeling reproduces Table 1: exhaustive best-format
// labeling over the (sampled) corpus with per-domain affinity counts.
func BenchmarkTable1AffinityLabeling(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		res := bench.Table1(cfg)
		if i == 0 {
			b.ReportMetric(res.Percent[0], "pct-CSR")
			b.ReportMetric(res.Percent[2], "pct-DIA")
		}
	}
}

// BenchmarkFigure1AMGLevels reproduces Figure 1: per-level format affinity
// across an AMG hierarchy built from a 3D 7-point Laplacian.
func BenchmarkFigure1AMGLevels(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		res, err := bench.Figure1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Rows)), "levels")
		}
	}
}

// BenchmarkFigure3FormatVariance reproduces Figure 3: the four-format
// performance spread over the 16 representative matrices.
func BenchmarkFigure3FormatVariance(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		res := bench.Figure3(cfg)
		if i == 0 {
			b.ReportMetric(res.MaxGap, "max-gap-x")
		}
	}
}

// BenchmarkFigure6ParameterDistributions reproduces Figure 6: beneficial-
// matrix distributions over the Table 2 parameter intervals.
func BenchmarkFigure6ParameterDistributions(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		res := bench.Figure6(cfg)
		if i == 0 {
			b.ReportMetric(float64(len(res.Panels)), "panels")
		}
	}
}

// BenchmarkFigure9SMATPerformance reproduces Figure 9: tuned SpMV GFLOPS in
// single and double precision on both platform configurations.
func BenchmarkFigure9SMATPerformance(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		res := bench.Figure9(cfg)
		if i == 0 {
			b.ReportMetric(res.PeakSPA, "peak-SP-gflops")
			b.ReportMetric(res.PeakDPA, "peak-DP-gflops")
		}
	}
}

// BenchmarkFigure10SMATvsReference reproduces Figure 10: SMAT against the
// fixed-format reference library, with eval-set average speedups.
func BenchmarkFigure10SMATvsReference(b *testing.B) {
	cfg := benchCfg(b)
	cfg.Stride = 60
	for i := 0; i < b.N; i++ {
		res := bench.Figure10(cfg)
		if i == 0 {
			b.ReportMetric(res.AvgSP, "avg-speedup-SP")
			b.ReportMetric(res.AvgDP, "avg-speedup-DP")
		}
	}
}

// BenchmarkTable3DecisionOverhead reproduces Table 3: per-matrix decision
// audit, prediction accuracy and overhead in CSR-SpMV multiples.
func BenchmarkTable3DecisionOverhead(b *testing.B) {
	cfg := benchCfg(b)
	cfg.Stride = 60
	for i := 0; i < b.N; i++ {
		res := bench.Table3(cfg)
		if i == 0 {
			b.ReportMetric(100*res.EvalAccuracy, "accuracy-pct")
			b.ReportMetric(res.MeanOverheadPredicted, "overhead-predicted-x")
			b.ReportMetric(res.MeanOverheadFallback, "overhead-fallback-x")
		}
	}
}

// BenchmarkTable4AMG reproduces Table 4: AMG solve time with SMAT-tuned
// SpMV versus the fixed-CSR baseline on the paper's two configurations.
func BenchmarkTable4AMG(b *testing.B) {
	cfg := benchCfg(b)
	cfg.Scale = 0.12
	for i := 0; i < b.N; i++ {
		res, err := bench.Table4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) == 2 {
			b.ReportMetric(res.Rows[0].Speedup, "speedup-cljp7pt-x")
			b.ReportMetric(res.Rows[1].Speedup, "speedup-rugeL9pt-x")
		}
	}
}

// BenchmarkAblationScoreboard measures the scoreboard kernel search itself
// (DESIGN.md ablation: scoreboard pick vs exhaustive best).
func BenchmarkAblationScoreboard(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		bench.AblationScoreboard(cfg)
	}
}

// BenchmarkExtensionFormats measures the opt-in HYB extension format against
// the basic four on its home workload and two others (DESIGN.md:
// extensibility).
func BenchmarkExtensionFormats(b *testing.B) {
	cfg := benchCfg(b)
	for i := 0; i < b.N; i++ {
		bench.Extensions(cfg)
	}
}
