package bench

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"smat"
	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/matrix"
)

// fastCfg returns a config small enough for unit testing every experiment.
func fastCfg(out *bytes.Buffer) Config {
	return Config{
		Scale:   0.02,
		Threads: 2,
		Model:   smat.DefaultModel(),
		Measure: autotune.MeasureOptions{MinTime: 50 * time.Microsecond, Trials: 1},
		Stride:  101,
		Seed:    3,
		Out:     out,
	}
}

func TestTable1(t *testing.T) {
	var out bytes.Buffer
	res := Table1(fastCfg(&out))
	if res.N == 0 {
		t.Fatal("no matrices labeled")
	}
	sum := 0
	for _, n := range res.Totals {
		sum += n
	}
	if sum != res.N {
		t.Errorf("totals sum %d != N %d", sum, res.N)
	}
	pct := 0.0
	for _, p := range res.Percent {
		pct += p
	}
	if math.Abs(pct-100) > 0.5 {
		t.Errorf("percentages sum to %g", pct)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Error("missing printed header")
	}
}

func TestFigure3(t *testing.T) {
	var out bytes.Buffer
	res := Figure3(fastCfg(&out))
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows, want 16 representatives", len(res.Rows))
	}
	for _, row := range res.Rows {
		if len(row.GFLOPS) == 0 {
			t.Errorf("%s: no formats measured", row.Name)
		}
		if g, ok := row.GFLOPS[matrix.FormatCSR]; !ok || g <= 0 {
			t.Errorf("%s: CSR GFLOPS %g", row.Name, g)
		}
	}
	if res.MaxGap < 1 {
		t.Errorf("max gap %g < 1", res.MaxGap)
	}
}

func TestFigure9(t *testing.T) {
	var out bytes.Buffer
	res := Figure9(fastCfg(&out))
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SPA <= 0 || row.DPA <= 0 || row.SPB <= 0 || row.DPB <= 0 {
			t.Errorf("%s: non-positive GFLOPS %+v", row.Name, row)
		}
	}
	if res.PeakDPA <= 0 {
		t.Error("no peak recorded")
	}
}

func TestFigure10(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	cfg.Stride = 301
	res := Figure10(cfg)
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.SpeedupDP <= 0 {
			t.Errorf("%s: speedup %g", row.Name, row.SpeedupDP)
		}
	}
	if res.AvgDP <= 0 {
		t.Error("no eval aggregate")
	}
}

func TestTable3(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	cfg.Stride = 301
	res := Table3(cfg)
	if len(res.Rows) != 16 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Prediction == "" {
			t.Errorf("row %d: empty prediction", row.Number)
		}
		if row.Overhead < 0 {
			t.Errorf("row %d: negative overhead", row.Number)
		}
		if !row.Right && row.SmatChoice == row.BestFormat {
			t.Errorf("row %d: accuracy flag inconsistent", row.Number)
		}
	}
	if res.EvalN == 0 || res.EvalAccuracy < 0 || res.EvalAccuracy > 1 {
		t.Errorf("eval accuracy %g over %d", res.EvalAccuracy, res.EvalN)
	}
	// The fallback mean comes with the number of decisions it averages, so
	// a 0 mean is a path no decision took, and the report says so.
	fallback := "fallback path none ran\n"
	if res.FallbackDecisions > 0 {
		fallback = fmt.Sprintf("x over %d\n", res.FallbackDecisions)
	}
	if uint64(res.FallbackDecisions) > res.Fallbacks || (res.FallbackDecisions > 0) != (res.MeanOverheadFallback > 0) ||
		!strings.Contains(out.String(), fallback) {
		t.Errorf("fallback mean %gx over %d decisions, %d fallbacks counted; output:\n%s",
			res.MeanOverheadFallback, res.FallbackDecisions, res.Fallbacks, out.String())
	}
}

func TestFigure6(t *testing.T) {
	var out bytes.Buffer
	res := Figure6(fastCfg(&out))
	if len(res.Panels) != 7 {
		t.Fatalf("%d panels, want 7", len(res.Panels))
	}
	for _, p := range res.Panels {
		if len(p.Intervals) != len(p.Percent) {
			t.Fatalf("%s: intervals/percent mismatch", p.Param)
		}
		if p.N == 0 {
			continue // no beneficial matrices in this tiny sample
		}
		sum := 0.0
		for _, pc := range p.Percent {
			sum += pc
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s: percentages sum to %g", p.Param, sum)
		}
	}
}

func TestFigure1(t *testing.T) {
	var out bytes.Buffer
	res, err := Figure1(fastCfg(&out))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("%d levels, want ≥2", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Rows >= res.Rows[i-1].Rows {
			t.Errorf("level %d not coarser", i)
		}
	}
	// The finest level is a 7-point stencil: DIA must at least be feasible.
	if _, ok := res.Rows[0].GFLOPS[matrix.FormatDIA]; !ok {
		t.Error("DIA infeasible on the stencil level")
	}
}

func TestTable4(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	cfg.Scale = 0.06
	res, err := Table4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2 configurations", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.BaseMS <= 0 || row.SmatMS <= 0 {
			t.Errorf("%s: non-positive times %+v", row.Name, row)
		}
		if row.BaseIters == 0 || row.SmatIters == 0 {
			t.Errorf("%s: did not iterate", row.Name)
		}
		if len(row.Formats) != row.Levels {
			t.Errorf("%s: %d A-formats for %d levels", row.Name, len(row.Formats), row.Levels)
		}
	}
}

func TestAblationThreshold(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	cfg.Stride = 301
	res := AblationThreshold(cfg, []float64{0.05, 1.0})
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	lo, hi := res.Rows[0], res.Rows[1]
	if hi.FallbackRate < lo.FallbackRate {
		t.Errorf("fallback rate decreased with threshold: %g vs %g", lo.FallbackRate, hi.FallbackRate)
	}
	// Threshold 1.0 means no rule is ever confident enough: all fallback,
	// and the fallback always picks a measured-best format.
	if hi.FallbackRate != 1.0 {
		t.Errorf("threshold 1.0 fallback rate = %g, want 1", hi.FallbackRate)
	}
}

func TestAblationScoreboard(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	cfg.Scale = 0.05
	res := AblationScoreboard(cfg)
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows, want 4 formats", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ChosenGFLOPS <= 0 || row.BestGFLOPS <= 0 || row.Basic <= 0 {
			t.Errorf("%v: non-positive measurements %+v", row.Format, row)
		}
		if row.ChosenGFLOPS > row.BestGFLOPS+1e-9 {
			t.Errorf("%v: chosen faster than exhaustive best?", row.Format)
		}
	}
}

func TestAblationRules(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	cfg.Stride = 151
	res, err := AblationRules(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TailoredRules > res.FullRules {
		t.Error("tailored ruleset larger than full")
	}
	for _, acc := range []float64{res.FullAccuracy, res.TailoredAccuracy, res.ReducedAccuracy} {
		if acc < 0 || acc > 1 {
			t.Errorf("accuracies out of range: %+v", res)
		}
	}
}

// TestInduceDroppingNothingIsTraining holds the feature ablation's reduced
// pipeline to training's: with no attribute dropped it must reproduce each
// class's full ruleset, so the ablation's difference is the attributes'.
func TestInduceDroppingNothingIsTraining(t *testing.T) {
	f, err := os.Open("../../features.db.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	db, err := autotune.LoadDatabase(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	trained, err := autotune.TrainFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, cl := range trained.Classes {
		ds, cfg := withoutAttrs(cl.Dataset, nil)
		rs, err := induce(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rs.Accuracy(ds), cl.FullRuleset.Accuracy(cl.Dataset); got != want || len(rs.Rules) != cl.FullRules {
			t.Errorf("%d threads: dropping nothing gives %d rules at %.4f training accuracy, training %d at %.4f",
				cl.Threads, len(rs.Rules), got, cl.FullRules, want)
		}
	}
}

// TestHeldOutExcludesTraining checks that the held-out sample shares no entry
// with the training half of the split smat-train labels.
func TestHeldOutExcludesTraining(t *testing.T) {
	cfg := fastCfg(nil).withDefaults()
	train, _ := corpus.New(cfg.Scale, cfg.Seed).Split(corpus.TrainN, cfg.Seed)
	trained := map[string]bool{}
	for _, e := range train {
		trained[e.Name] = true
	}
	for _, stride := range []int{1, 4, 16} {
		cfg.Stride = stride
		held := heldOut(cfg)
		if want := (len(corpus.New(cfg.Scale, cfg.Seed).Entries) - corpus.TrainN + stride - 1) / stride; len(held) != want {
			t.Errorf("stride %d: %d held-out entries, want %d", stride, len(held), want)
		}
		for _, e := range held {
			if trained[e.Name] {
				t.Errorf("stride %d: held-out entry %s is a training matrix", stride, e.Name)
			}
		}
	}
}

func TestBatchBench(t *testing.T) {
	var out bytes.Buffer
	res := BatchBench(fastCfg(&out))
	seen := map[string]int{}
	for _, row := range res.Rows {
		if row.SecPerOp <= 0 || row.PerVecGFLOPS <= 0 {
			t.Errorf("%s k=%d: non-positive throughput %+v", row.Class, row.Width, row)
		}
		seen[row.Class]++
	}
	for _, class := range []string{"dia-affine", "ell-affine", "csr-affine", "coo-affine"} {
		if seen[class] != len(batchWidths) {
			t.Errorf("%s: %d rows, want one per width %v", class, seen[class], batchWidths)
		}
	}
}

func TestExtensions(t *testing.T) {
	var out bytes.Buffer
	cfg := fastCfg(&out)
	res := Extensions(cfg)
	if len(res.Rows) != 3 {
		t.Fatalf("%d workloads, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.GFLOPS[matrix.FormatHYB] == "" {
			t.Errorf("%s: extension format not measured", row.Workload)
		}
		if row.GFLOPS[matrix.FormatCSR] == "-" {
			t.Errorf("%s: CSR infeasible?", row.Workload)
		}
	}
}

func TestConvertBench(t *testing.T) {
	var out bytes.Buffer
	res := ConvertBench(fastCfg(&out))
	if len(res.Rows) != 2*len(convertKs) {
		t.Fatalf("%d rows, want %d (2 classes x %d ks)", len(res.Rows), 2*len(convertKs), len(convertKs))
	}
	for _, row := range res.Rows {
		if row.NeverSec <= 0 || row.EagerSec <= 0 || row.AmortizedSec <= 0 {
			t.Errorf("%s k=%d: non-positive timing %+v", row.Class, row.K, row)
		}
		if row.BestPolicy != "never" && row.BestPolicy != "eager" {
			t.Errorf("%s k=%d: best policy %q", row.Class, row.K, row.BestPolicy)
		}
	}
	if !strings.Contains(out.String(), "Amortized conversion") {
		t.Error("printed output missing header")
	}
}

// TestDerivedCutoff pins the cutoff sweep's derivation: per format, the
// smallest swept size from which the pooled path won at every larger size;
// across formats, the largest of those, or 0 when some format lost at its
// largest size.
func TestDerivedCutoff(t *testing.T) {
	sizes := []int{1024, 2048, 4096, 8192}
	cases := []struct {
		name string
		wins [][]bool // per format, one verdict per size
		want int
	}{
		{"lose then win", [][]bool{{false, false, true, true}}, 4096},
		{"win lose win", [][]bool{{true, false, true, true}}, 4096},
		{"win throughout", [][]bool{{true, true, true, true}}, 1024},
		{"never wins", [][]bool{{false, false, false, false}}, 0},
		{"loses at the largest size", [][]bool{{true, true, true, false}}, 0},
		{"latest format decides", [][]bool{{false, true, true, true}, {false, false, false, true}}, 8192},
		{"one format never wins", [][]bool{{true, true, true, true}, {false, false, false, false}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			formats := make([]winsFrom, len(tc.wins))
			for f, wins := range tc.wins {
				for i, won := range wins {
					formats[f].note(sizes[i], won)
				}
			}
			if got := derivedCutoff(formats); got != tc.want {
				t.Errorf("derivedCutoff = %d, want %d", got, tc.want)
			}
		})
	}
}
