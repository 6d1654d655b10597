package bench

import (
	"fmt"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/features"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// AblationThresholdResult sweeps the runtime confidence threshold: low
// thresholds trust the model everywhere (cheap, less accurate on hard
// inputs); high thresholds fall back to measurement (accurate, expensive).
type AblationThresholdResult struct {
	Rows []AblationThresholdRow
}

// AblationThresholdRow is one threshold setting.
type AblationThresholdRow struct {
	Threshold    float64
	Accuracy     float64
	FallbackRate float64
	MeanOverhead float64
	N            int
}

// AblationThreshold evaluates the accuracy/overhead trade-off of the
// confidence threshold on the sampled evaluation split.
func AblationThreshold(cfg Config, thresholds []float64) *AblationThresholdResult {
	cfg = cfg.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []float64{0.05, 0.25, 0.50, 0.75, 0.85, 0.95, 1.0}
	}
	c := corpus.New(cfg.Scale, cfg.Seed)
	_, eval := c.Split(len(c.Entries)*6/7, cfg.Seed)
	labeler := autotune.NewLabeler(cfg.choice(), cfg.Threads, cfg.Measure)

	// Pre-label the sample once.
	type sample struct {
		m       *matrix.CSR[float64]
		best    matrix.Format
		unitSec float64 // one basic CSR-SpMV: the overhead unit
	}
	var samples []sample
	for i, e := range eval {
		if cfg.Stride > 1 && i%cfg.Stride != 0 {
			continue
		}
		m := e.Matrix()
		samples = append(samples, sample{m, labeler.Label(m).Best, csrUnitSec(m, cfg.Measure)})
	}

	res := &AblationThresholdResult{}
	for _, th := range thresholds {
		model := *cfg.Model
		model.ConfidenceThreshold = th
		tuner := autotune.New[float64](&model, autotune.Config{Threads: cfg.Threads})
		row := AblationThresholdRow{Threshold: th}
		var ovSum float64
		fallbacks := 0
		right := 0
		for _, s := range samples {
			_, dec, err := tuner.Tune(s.m)
			if err != nil {
				continue
			}
			if dec.Chosen == s.best {
				right++
			}
			if dec.UsedFallback {
				fallbacks++
			}
			ovSum += overheadSpMV(dec, s.unitSec)
			row.N++
		}
		if row.N > 0 {
			row.Accuracy = float64(right) / float64(row.N)
			row.FallbackRate = float64(fallbacks) / float64(row.N)
			row.MeanOverhead = ovSum / float64(row.N)
		}
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Threshold", "Accuracy", "FallbackRate", "MeanOverhead", "N"}}
	for _, row := range res.Rows {
		t.add(f2(row.Threshold), f2(100*row.Accuracy)+"%", f2(100*row.FallbackRate)+"%",
			f2(row.MeanOverhead)+"x", fmt.Sprint(row.N))
	}
	fmt.Fprintln(cfg.Out, "Ablation: confidence threshold sweep (accuracy vs overhead)")
	t.print(cfg.Out)
	return res
}

// AblationTailoringResult compares the full extracted ruleset against the
// tailored prefix (Section 6: the paper cuts 40 rules to 15 within 1%
// accuracy).
type AblationTailoringResult struct {
	FullRules, TailoredRules       int
	FullAccuracy, TailoredAccuracy float64
}

// AblationTailoring trains a model on the sampled training split and
// evaluates both rulesets on the sampled evaluation split.
func AblationTailoring(cfg Config) (*AblationTailoringResult, error) {
	cfg = cfg.withDefaults()
	res, evalDS, err := trainForAblation(cfg)
	if err != nil {
		return nil, err
	}
	cl := &res.Classes[0]
	out := &AblationTailoringResult{
		FullRules:        cl.FullRules,
		TailoredRules:    cl.TailoredRules,
		FullAccuracy:     cl.FullRuleset.Accuracy(evalDS),
		TailoredAccuracy: res.Model.Classes[0].Ruleset.Accuracy(evalDS),
	}
	fmt.Fprintln(cfg.Out, "Ablation: rule tailoring")
	t := &table{header: []string{"Ruleset", "Rules", "EvalAccuracy"}}
	t.add("full", fmt.Sprint(out.FullRules), f2(100*out.FullAccuracy)+"%")
	t.add("tailored", fmt.Sprint(out.TailoredRules), f2(100*out.TailoredAccuracy)+"%")
	t.print(cfg.Out)
	return out, nil
}

// AblationFeaturesResult measures the contribution of the paper's two
// refinement parameters (NTdiags_ratio, var_RD — the ones Section 4 adds
// after observing ER_DIA/ER_ELL alone are too coarse) by retraining without
// them.
type AblationFeaturesResult struct {
	FullAccuracy    float64
	ReducedAccuracy float64
	Dropped         []string
}

// AblationFeatures trains once, then relearns on a dataset with the
// refinement attributes removed and compares held-out accuracy.
func AblationFeatures(cfg Config) (*AblationFeaturesResult, error) {
	cfg = cfg.withDefaults()
	res, evalDS, err := trainForAblation(cfg)
	if err != nil {
		return nil, err
	}
	dropped := []string{"NTdiags_ratio", "var_RD"}
	keep := make([]int, 0, len(features.AttributeNames))
	var keptNames []string
	for i, n := range features.AttributeNames {
		isDropped := false
		for _, d := range dropped {
			if n == d {
				isDropped = true
				break
			}
		}
		if !isDropped {
			keep = append(keep, i)
			keptNames = append(keptNames, n)
		}
	}
	project := func(ds *mining.Dataset) *mining.Dataset {
		out := &mining.Dataset{AttrNames: keptNames, ClassNames: ds.ClassNames}
		for _, ex := range ds.Examples {
			attrs := make([]float64, len(keep))
			for j, idx := range keep {
				attrs[j] = ex.Attrs[idx]
			}
			out.Examples = append(out.Examples, mining.Example{Attrs: attrs, Label: ex.Label})
		}
		return out
	}
	cl := &res.Classes[0]
	redTrain := project(cl.Dataset)
	redEval := project(evalDS)
	tree, err := mining.BuildTree(redTrain, mining.TreeConfig{})
	if err != nil {
		return nil, err
	}
	reduced := mining.RulesFromTree(tree, redTrain)

	out := &AblationFeaturesResult{
		FullAccuracy:    cl.FullRuleset.Accuracy(evalDS),
		ReducedAccuracy: reduced.Accuracy(redEval),
		Dropped:         dropped,
	}
	fmt.Fprintln(cfg.Out, "Ablation: refinement features (drop NTdiags_ratio and var_RD)")
	t := &table{header: []string{"Features", "EvalAccuracy"}}
	t.add("all 11", f2(100*out.FullAccuracy)+"%")
	t.add("without refinements", f2(100*out.ReducedAccuracy)+"%")
	t.print(cfg.Out)
	return out, nil
}

// trainForAblation trains on the sampled training split and labels the
// sampled evaluation split into a held-out dataset.
func trainForAblation(cfg Config) (*autotune.TrainResult, *mining.Dataset, error) {
	c := corpus.New(cfg.Scale, cfg.Seed)
	train, eval := c.Split(len(c.Entries)*6/7, cfg.Seed)
	var trainSample []*corpus.Entry
	for i, e := range train {
		if cfg.Stride > 1 && i%cfg.Stride != 0 {
			continue
		}
		trainSample = append(trainSample, e)
	}
	res, err := autotune.Train(trainSample, autotune.TrainConfig{
		Threads:          []int{cfg.Threads},
		Measure:          cfg.Measure,
		SkipKernelSearch: true,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	// Label the held-out set with the kernels the training labels used, so
	// both splits share one ground truth.
	labeler := autotune.NewLabeler(kernelChoice(&res.Model.Classes[0]), cfg.Threads, cfg.Measure)
	defer labeler.Close()
	ds := res.Classes[0].Dataset
	evalDS := &mining.Dataset{AttrNames: ds.AttrNames, ClassNames: ds.ClassNames}
	for i, e := range eval {
		if cfg.Stride > 1 && i%cfg.Stride != 0 {
			continue
		}
		m := e.Matrix()
		evalDS.Examples = append(evalDS.Examples, mining.Example{
			Attrs: featVec(m),
			Label: int(labeler.Label(m).Best),
		})
	}
	return res, evalDS, nil
}

// AblationScoreboardResult compares, per format, the scoreboard-chosen
// kernel against the exhaustively-best and the basic implementation on the
// search probes.
type AblationScoreboardResult struct {
	Rows []AblationScoreboardRow
}

// AblationScoreboardRow is one format.
type AblationScoreboardRow struct {
	Format                          matrix.Format
	Chosen                          string
	ChosenGFLOPS, BestGFLOPS, Basic float64
	BestKernel                      string
}

// AblationScoreboard runs the kernel search and checks how close the
// scoreboard pick is to the exhaustive optimum.
func AblationScoreboard(cfg Config) *AblationScoreboardResult {
	cfg = cfg.withDefaults()
	_, results := autotune.SearchKernels(autotune.SearchConfig{
		Threads:    cfg.Threads,
		ProbeScale: cfg.Scale,
		Measure:    cfg.Measure,
		Seed:       cfg.Seed,
	})
	res := &AblationScoreboardResult{}
	for _, r := range results {
		row := AblationScoreboardRow{Format: r.Format, Chosen: r.Best}
		for _, rec := range r.Table {
			if rec.Kernel == r.Best {
				row.ChosenGFLOPS = rec.GFLOPS
			}
			if rec.GFLOPS > row.BestGFLOPS {
				row.BestGFLOPS = rec.GFLOPS
				row.BestKernel = rec.Kernel
			}
			if rec.Strategies == 0 {
				row.Basic = rec.GFLOPS
			}
		}
		res.Rows = append(res.Rows, row)
	}

	t := &table{header: []string{"Format", "Scoreboard pick", "GFLOPS", "Exhaustive best", "GFLOPS", "Basic GFLOPS"}}
	for _, row := range res.Rows {
		t.add(row.Format.String(), row.Chosen, f2(row.ChosenGFLOPS),
			row.BestKernel, f2(row.BestGFLOPS), f2(row.Basic))
	}
	fmt.Fprintln(cfg.Out, "Ablation: scoreboard kernel search vs exhaustive search vs basic kernels")
	t.print(cfg.Out)
	return res
}

// featVec extracts a matrix's feature vector.
func featVec(m *matrix.CSR[float64]) []float64 {
	f := features.Extract(m)
	return f.Vector()
}
