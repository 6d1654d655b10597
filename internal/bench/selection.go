package bench

import (
	"fmt"
	"math"
	"slices"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/mining"
)

// selectionTrainN is the training split size smat-train uses by default: the
// evaluation split is the rest of the corpus, matrices no shipped class saw.
const selectionTrainN = 2055

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
	res := &SelectionResult{Scale: cfg.Scale}
	models := []struct {
		name  string
		model *autotune.Model
	}{{"shipped", cfg.Model}}
	if cfg.Baseline != nil {
		models = append(models, struct {
			name  string
			model *autotune.Model
		}{"baseline", cfg.Baseline})
	}
	threads := slices.Compact([]int{1, cfg.Threads})

	type cell struct {
		row                  SelectionRow
		tuner                *autotune.Tuner[float64]
		right, fallbacks     int
		logLoss, logB, logCh float64
	}
	labelers := make([]*autotune.Labeler, len(threads))
	cells := make([][]*cell, len(threads))
	for ti, th := range threads {
		labelers[ti] = autotune.NewLabeler(cfg.Model.Class(th).Choice(), th, cfg.Measure)
		defer labelers[ti].Close()
		for _, m := range models {
			c := &cell{tuner: autotune.New[float64](m.model, autotune.Config{Threads: th, CacheSize: -1})}
			defer c.tuner.Close()
			c.row = SelectionRow{Model: m.name, Threads: c.tuner.Threads(), ClassThreads: m.model.Class(c.tuner.Threads()).Threads}
			if m.model == cfg.Model && cfg.Database != nil {
				if ds, err := cfg.Database.Dataset(c.row.ClassThreads); err == nil && len(ds.Examples) >= 5 {
					_, c.row.CVAccuracy, _ = mining.CrossValidate(ds, 5, autotune.DefaultTree(), cfg.Seed)
					c.row.CVN = len(ds.Examples)
				}
			}
			cells[ti] = append(cells[ti], c)
		}
	}

	_, eval := corpus.New(cfg.Scale, cfg.Seed).Split(selectionTrainN, cfg.Seed)
	for i, e := range eval {
		if cfg.Stride > 1 && i%cfg.Stride != 0 {
			continue
		}
		m := e.Matrix()
		res.EvalN++
		for ti := range threads {
			lbl := labelers[ti].Label(m)
			best := lbl.GFLOPS[lbl.Best]
			for _, c := range cells[ti] {
				_, dec, err := c.tuner.Tune(m)
				chosen, ok := lbl.GFLOPS[dec.Chosen]
				if err != nil || !ok || chosen <= 0 || best <= 0 {
					continue
				}
				c.row.N++
				if dec.Chosen == lbl.Best {
					c.right++
				}
				if dec.UsedFallback {
					c.fallbacks++
				}
				c.logLoss += math.Log(best / chosen)
				c.logB += math.Log(best)
				c.logCh += math.Log(chosen)
			}
		}
	}

	t := &table{header: []string{"Model", "Threads", "Class", "CV acc", "Eval acc", "Fallback", "Agreed", "Geomean loss", "N"}}
	for ti := range threads {
		for _, c := range cells[ti] {
			r := &c.row
			if n := float64(r.N); n > 0 {
				r.Accuracy = float64(c.right) / n
				r.FallbackRate = float64(c.fallbacks) / n
				r.GeomeanLoss = math.Exp(c.logLoss / n)
				r.BestGFLOPSGeomean = math.Exp(c.logB / n)
				r.ChosenGFLOPSGeomean = math.Exp(c.logCh / n)
			}
			if st := c.tuner.Stats(); st.Fallbacks > 0 {
				r.FallbackAgreement = float64(st.FallbackAgreed) / float64(st.Fallbacks)
			}
			res.Rows = append(res.Rows, *r)
			t.add(r.Model, fmt.Sprint(r.Threads), fmt.Sprint(r.ClassThreads), f2(100*r.CVAccuracy)+"%", f2(100*r.Accuracy)+"%",
				f2(100*r.FallbackRate)+"%", f2(100*r.FallbackAgreement)+"%", f2(r.GeomeanLoss)+"x", fmt.Sprint(r.N))
		}
	}
	fmt.Fprintf(cfg.Out, "Selection: held-out accuracy, fallback rate and loss against the labeled best (%d evaluation matrices)\n", res.EvalN)
	t.print(cfg.Out)
	return res
}
