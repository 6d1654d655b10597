package bench

import (
	"fmt"
	"slices"

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
// confidence threshold on the sampled evaluation split: one copy of cfg.Model
// per threshold, scored together (scoreHeldOut).
func AblationThreshold(cfg Config, thresholds []float64) *AblationThresholdResult {
	cfg = cfg.withDefaults()
	if len(thresholds) == 0 {
		thresholds = []float64{0.05, 0.25, 0.50, 0.75, 0.85, 0.95, 1.0}
	}
	models := make([]*autotune.Model, len(thresholds))
	for i, th := range thresholds {
		model := *cfg.Model
		model.ConfidenceThreshold = th
		models[i] = &model
	}
	res := &AblationThresholdResult{}
	for i, s := range scoreHeldOut(cfg, cfg.Threads, true, models...) {
		row := AblationThresholdRow{Threshold: thresholds[i], Accuracy: s.share(s.right), FallbackRate: s.share(s.fallbacks), N: s.n}
		if s.n > 0 {
			row.MeanOverhead = (s.predOverhead + s.fbOverhead) / float64(s.n)
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

// AblationRulesResult is the ruleset ablation, both halves from one training
// run on the sampled training split, scored on the held-out split. Tailoring:
// the full extracted ruleset against its tailored prefix (Section 6: the paper
// cuts 40 rules to 15 within 1% accuracy). Features: the full ruleset against
// one induced the same way from a dataset without the paper's two refinement
// parameters (NTdiags_ratio, var_RD — the ones Section 4 adds after observing
// ER_DIA/ER_ELL alone are too coarse). Training already weighs NTdiags_ratio 0
// (autotune.DefaultTree), so no full ruleset tests it and dropping it alone
// changes nothing: the difference is var_RD's.
type AblationRulesResult struct {
	FullRules, TailoredRules       int
	FullAccuracy, TailoredAccuracy float64
	ReducedAccuracy                float64
	Dropped                        []string
}

// ablationDropped are the attributes the feature half of AblationRules drops.
var ablationDropped = []string{"NTdiags_ratio", "var_RD"}

// AblationRules trains once on the sampled training split, labels the
// held-out split with the kernels the training labels used, so both splits
// share one ground truth, and compares the full, tailored and reduced
// rulesets on it.
func AblationRules(cfg Config) (*AblationRulesResult, error) {
	cfg = cfg.withDefaults()
	train, _ := corpus.New(cfg.Scale, cfg.Seed).Split(corpus.TrainN, cfg.Seed)
	res, err := autotune.Train(every(train, cfg.Stride), autotune.TrainConfig{
		Threads:          []int{cfg.Threads},
		Measure:          cfg.Measure,
		SkipKernelSearch: true,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cl := &res.Classes[0]
	evalDS := &mining.Dataset{AttrNames: cl.Dataset.AttrNames, ClassNames: cl.Dataset.ClassNames}
	cfg.Model = res.Model
	label(cfg, cfg.Threads, heldOut(cfg), func(_ *corpus.Entry, m *matrix.CSR[float64], lbl autotune.Label) {
		f := features.Extract(m)
		evalDS.Examples = append(evalDS.Examples, mining.Example{Attrs: f.Vector(), Label: int(lbl.Best)})
	})
	redTrain, treeCfg := withoutAttrs(cl.Dataset, ablationDropped)
	redEval, _ := withoutAttrs(evalDS, ablationDropped)
	reduced, err := induce(redTrain, treeCfg)
	if err != nil {
		return nil, err
	}
	out := &AblationRulesResult{
		FullRules:        cl.FullRules,
		TailoredRules:    cl.TailoredRules,
		FullAccuracy:     cl.FullRuleset.Accuracy(evalDS),
		TailoredAccuracy: res.Model.Classes[0].Ruleset.Accuracy(evalDS),
		ReducedAccuracy:  reduced.Accuracy(redEval),
		Dropped:          ablationDropped,
	}
	fmt.Fprintln(cfg.Out, "Ablation: rule tailoring and the refinement features (drop NTdiags_ratio and var_RD)")
	t := &table{header: []string{"Ruleset", "Rules", "EvalAccuracy"}}
	t.add("full", fmt.Sprint(out.FullRules), f2(100*out.FullAccuracy)+"%")
	t.add("tailored", fmt.Sprint(out.TailoredRules), f2(100*out.TailoredAccuracy)+"%")
	t.add("without refinements", fmt.Sprint(len(reduced.Rules)), f2(100*out.ReducedAccuracy)+"%")
	t.print(cfg.Out)
	return out, nil
}

// withoutAttrs returns ds, a dataset over features.AttributeNames, without
// the dropped attributes, and the tree configuration training would induce on
// it: DefaultTree's weights of the attributes kept.
func withoutAttrs(ds *mining.Dataset, dropped []string) (*mining.Dataset, mining.TreeConfig) {
	weights := autotune.DefaultTree().AttrWeights
	out := &mining.Dataset{ClassNames: ds.ClassNames}
	var cfg mining.TreeConfig
	var keep []int
	for i, n := range ds.AttrNames {
		if !slices.Contains(dropped, n) {
			keep = append(keep, i)
			out.AttrNames = append(out.AttrNames, n)
			cfg.AttrWeights = append(cfg.AttrWeights, weights[i])
		}
	}
	for _, ex := range ds.Examples {
		attrs := make([]float64, len(keep))
		for j, i := range keep {
			attrs[j] = ex.Attrs[i]
		}
		out.Examples = append(out.Examples, mining.Example{Attrs: attrs, Label: ex.Label})
	}
	return out, cfg
}

// induce is training's full ruleset on ds (autotune.TrainFromDatabase):
// rules from the tree cfg grows, their conditions simplified.
func induce(ds *mining.Dataset, cfg mining.TreeConfig) (*mining.Ruleset, error) {
	tree, err := mining.BuildTree(ds, cfg)
	if err != nil {
		return nil, err
	}
	return mining.RulesFromTree(tree, ds).SimplifyConditions(ds), nil
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
