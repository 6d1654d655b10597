package bench

import (
	"fmt"
	"slices"

	"smat/internal/autotune"
	"smat/internal/mining"
)

// SelectionResult is the selection-accuracy gate: per model and thread class,
// how well the runtime picks formats on the held-out evaluation split.
type SelectionResult struct {
	Scale float64        `json:"scale"`
	EvalN int            `json:"eval_n"`
	Rows  []SelectionRow `json:"rows"`
}

// SelectionRow is one model at one thread count. The ground truth is the
// labeler's verdict at that count (autotune.Labeler.Label, timed with the
// kernels of the model's class); the decisions are an uncached tuner's.
type SelectionRow struct {
	Model        string `json:"model"`
	Threads      int    `json:"threads"`
	ClassThreads int    `json:"class_threads"`
	// CVAccuracy is the mean 5-fold cross-validated accuracy of the tree on
	// the feature database's rows of the class (0 with no database); CVN is
	// the number of rows.
	CVAccuracy float64 `json:"cv_accuracy"`
	CVN        int     `json:"cv_n"`
	// Accuracy is the share of evaluation matrices whose served format is
	// the labeled best; FallbackRate the share that took execute-and-measure;
	// FallbackAgreement the share of those whose measured winner was the
	// ruleset's best guess (Stats().FallbackAgreed / Fallbacks).
	Accuracy          float64 `json:"accuracy"`
	FallbackRate      float64 `json:"fallback_rate"`
	FallbackAgreement float64 `json:"fallback_agreement"`
	// GeomeanLoss is the geometric mean over the evaluation matrices of the
	// best format's labeled GFLOPS over the served format's (1 = always the
	// best); the two GFLOPS geomeans are its numerator and denominator.
	GeomeanLoss         float64 `json:"geomean_loss"`
	BestGFLOPSGeomean   float64 `json:"best_gflops_geomean"`
	ChosenGFLOPSGeomean float64 `json:"chosen_gflops_geomean"`
	N                   int     `json:"n"`
}

// Selection evaluates cfg.Model, and cfg.Baseline when set, on the held-out
// split at one thread and at cfg.Threads, with k-fold accuracy from
// cfg.Database when set.
func Selection(cfg Config) *SelectionResult {
	cfg = cfg.withDefaults()
	res := &SelectionResult{Scale: cfg.Scale, EvalN: len(heldOut(cfg))}
	names, models := []string{"shipped"}, []*autotune.Model{cfg.Model}
	if cfg.Baseline != nil {
		names, models = append(names, "baseline"), append(models, cfg.Baseline)
	}
	t := &table{header: []string{"Model", "Threads", "Class", "CV acc", "Eval acc", "Fallback", "Agreed", "Geomean loss", "N"}}
	for _, th := range slices.Compact([]int{1, cfg.Threads}) {
		for i, s := range scoreHeldOut(cfg, th, false, models...) {
			r := SelectionRow{
				Model:               names[i],
				Threads:             s.threads,
				ClassThreads:        models[i].Class(s.threads).Threads,
				Accuracy:            s.share(s.right),
				FallbackRate:        s.share(s.fallbacks),
				FallbackAgreement:   s.agreement(),
				GeomeanLoss:         s.geomean(s.logLoss),
				BestGFLOPSGeomean:   s.geomean(s.logBest),
				ChosenGFLOPSGeomean: s.geomean(s.logChosen),
				N:                   s.n,
			}
			if i == 0 && cfg.Database != nil {
				if ds, err := cfg.Database.Dataset(r.ClassThreads); err == nil && len(ds.Examples) >= 5 {
					_, r.CVAccuracy, _ = mining.CrossValidate(ds, 5, autotune.DefaultTree(), cfg.Seed)
					r.CVN = len(ds.Examples)
				}
			}
			res.Rows = append(res.Rows, r)
			t.add(r.Model, fmt.Sprint(r.Threads), fmt.Sprint(r.ClassThreads), f2(100*r.CVAccuracy)+"%", f2(100*r.Accuracy)+"%",
				f2(100*r.FallbackRate)+"%", f2(100*r.FallbackAgreement)+"%", f2(r.GeomeanLoss)+"x", fmt.Sprint(r.N))
		}
	}
	fmt.Fprintf(cfg.Out, "Selection: held-out accuracy, fallback rate and loss against the labeled best (%d evaluation matrices)\n", res.EvalN)
	t.print(cfg.Out)
	return res
}
