package bench

import (
	"fmt"
	"slices"

	"smat/internal/autotune"
	"smat/internal/mining"
)

// SelectionResult is the selection-accuracy gate: per thread class,
// how well the runtime picks formats on the held-out evaluation split.
type SelectionResult struct {
	EvalN int            `json:"eval_n"`
	Rows  []SelectionRow `json:"rows"`
}

// SelectionRow is the model at one thread count. The ground truth is the
// labeler's verdict at that count (autotune.Labeler.Label, timed with the
// kernels of the model's class); the decisions are an uncached tuner's.
type SelectionRow struct {
	Threads      int `json:"threads"`
	ClassThreads int `json:"class_threads"`
	// CVAccuracy is the mean 5-fold cross-validated accuracy of the tree on
	// the feature database's rows of the class; CVN is the number of rows.
	// With CVN 0 (no database) no cross-validation ran, and CVAccuracy means
	// nothing.
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

// Selection evaluates cfg.Model on the held-out split at one thread and at
// cfg.Threads, with k-fold accuracy from cfg.Database when set.
func Selection(cfg Config) *SelectionResult {
	cfg = cfg.withDefaults()
	res := &SelectionResult{EvalN: len(heldOut(cfg))}
	t := &table{header: []string{"Threads", "Class", "CV acc", "Eval acc", "Fallback", "Agreed", "Geomean loss", "N"}}
	for _, th := range slices.Compact([]int{1, cfg.Threads}) {
		s := scoreHeldOut(cfg, th, false, cfg.Model)[0]
		r := SelectionRow{
			Threads:             s.threads,
			ClassThreads:        cfg.Model.Class(s.threads).Threads,
			Accuracy:            s.share(s.right),
			FallbackRate:        s.share(s.fallbacks),
			FallbackAgreement:   s.agreement(),
			GeomeanLoss:         s.geomean(s.logLoss),
			BestGFLOPSGeomean:   s.geomean(s.logBest),
			ChosenGFLOPSGeomean: s.geomean(s.logChosen),
			N:                   s.n,
		}
		if cfg.Database != nil {
			if ds, err := cfg.Database.Dataset(r.ClassThreads); err == nil && len(ds.Examples) >= 5 {
				_, r.CVAccuracy, _ = mining.CrossValidate(ds, 5, autotune.DefaultTree(), cfg.Seed)
				r.CVN = len(ds.Examples)
			}
		}
		res.Rows = append(res.Rows, r)
		cv := "n/a"
		if r.CVN > 0 {
			cv = f2(100*r.CVAccuracy) + "%"
		}
		t.add(fmt.Sprint(r.Threads), fmt.Sprint(r.ClassThreads), cv, f2(100*r.Accuracy)+"%",
			f2(100*r.FallbackRate)+"%", f2(100*r.FallbackAgreement)+"%", f2(r.GeomeanLoss)+"x", fmt.Sprint(r.N))
	}
	fmt.Fprintf(cfg.Out, "Selection: held-out accuracy, fallback rate and loss against the labeled best (%d evaluation matrices)\n", res.EvalN)
	t.print(cfg.Out)
	return res
}
