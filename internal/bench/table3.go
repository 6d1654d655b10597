package bench

import (
	"fmt"
	"sort"
	"strings"

	"smat/internal/autotune"
	"smat/internal/corpus"
)

// Table3Result reproduces Table 3: per representative matrix, the model's
// prediction, the execute-and-measure fallback (if any), SMAT's final
// choice, the exhaustively-measured best format, whether SMAT was right, and
// the decision overhead in CSR-SpMV multiples — plus aggregate accuracy over
// the held-out evaluation split.
type Table3Result struct {
	Threads int         `json:"threads"`
	Scale   float64     `json:"scale"`
	Rows    []Table3Row `json:"rows"`
	// EvalAccuracy is the fraction of sampled evaluation matrices where
	// SMAT's final choice matches the measured best format.
	EvalAccuracy float64 `json:"eval_accuracy"`
	EvalN        int     `json:"eval_n"`
	// MeanOverheadPredicted / MeanOverheadFallback split the overhead by
	// decision path (the paper: ≈2–5× predicted, ≈15–16× fallback).
	MeanOverheadPredicted float64 `json:"mean_overhead_predicted_spmv"`
	MeanOverheadFallback  float64 `json:"mean_overhead_fallback_spmv"`
	// Fallbacks and FallbackAgreed are the tuner's counters over the whole
	// run (Stats): execute-and-measure selections, and those whose measured
	// winner was the ruleset's best guess below the threshold.
	Fallbacks      uint64 `json:"fallbacks"`
	FallbackAgreed uint64 `json:"fallback_agreed"`
}

// Table3Row is one matrix's decision audit. Overhead is the tuning stages'
// seconds (Decision.TuneSec: extraction, any fallback, conversion; the rate
// probe runs only under an iteration hint, and none is given here) over
// CSRSpMVSec. That unit is one warm run of the basic serial CSR kernel on the
// same matrix, timed by the experiment itself (csrUnitSec) after the tune —
// not Decision.CSRSpMVSec: a predicted tune runs no kernel, and the fallback's
// own unit is a cold pooled run of the tuned kernel.
//
// Execution lists what the fallback timed: its contenders (tuned CSR plus the
// formats the ruleset left open), whichever they were. A feasible format that
// is not listed was not measured.
type Table3Row struct {
	Number     int     `json:"number"`
	Name       string  `json:"name"`
	Prediction string  `json:"prediction"` // predicted format or "confidence<TH"
	Execution  string  `json:"execution"`  // formats measured by the fallback, "+"-joined, or "-"
	SmatChoice string  `json:"smat_choice"`
	BestFormat string  `json:"best_format"`
	Right      bool    `json:"right"`
	Overhead   float64 `json:"overhead_spmv"`
	CSRSpMVSec float64 `json:"csr_spmv_sec"`
}

// Table3 audits the runtime decision on every representative matrix and
// aggregates accuracy over the evaluation split.
func Table3(cfg Config) *Table3Result {
	cfg = cfg.withDefaults()
	res := &Table3Result{Threads: cfg.Threads, Scale: cfg.Scale}
	tuner := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})
	labeler := autotune.NewLabeler(cfg.choice(), cfg.Threads, cfg.Measure)

	var predSum, fbSum float64
	var predN, fbN int
	audit := func(i int, e *corpus.Entry) Table3Row {
		m := e.Matrix()
		_, dec, err := tuner.Tune(m)
		row := Table3Row{Number: i + 1, Name: e.Name}
		if err != nil {
			row.Prediction = "error: " + err.Error()
			return row
		}
		if dec.PredictedOK {
			row.Prediction = dec.Predicted.String()
		} else {
			row.Prediction = "confidence<TH"
		}
		row.Execution = "-"
		if dec.UsedFallback {
			var fs []string
			for f := range dec.Measured {
				fs = append(fs, f.String())
			}
			sort.Strings(fs)
			row.Execution = strings.Join(fs, "+")
		}
		row.SmatChoice = dec.Chosen.String()
		row.BestFormat = labeler.Label(m).Best.String()
		row.Right = row.SmatChoice == row.BestFormat
		row.CSRSpMVSec = csrUnitSec(m, cfg.Measure)
		row.Overhead = overheadSpMV(dec, row.CSRSpMVSec)
		if dec.UsedFallback {
			fbSum += row.Overhead
			fbN++
		} else {
			predSum += row.Overhead
			predN++
		}
		return row
	}

	for i, e := range corpus.Representatives(cfg.Scale) {
		res.Rows = append(res.Rows, audit(i, e))
	}

	// Aggregate accuracy over the evaluation split.
	c := corpus.New(cfg.Scale, cfg.Seed)
	_, eval := c.Split(len(c.Entries)*6/7, cfg.Seed)
	right := 0
	for i, e := range eval {
		if cfg.Stride > 1 && i%cfg.Stride != 0 {
			continue
		}
		m := e.Matrix()
		_, dec, err := tuner.Tune(m)
		if err != nil {
			continue
		}
		overhead := overheadSpMV(dec, csrUnitSec(m, cfg.Measure))
		if dec.UsedFallback {
			fbSum += overhead
			fbN++
		} else {
			predSum += overhead
			predN++
		}
		if dec.Chosen == labeler.Label(m).Best {
			right++
		}
		res.EvalN++
	}
	if res.EvalN > 0 {
		res.EvalAccuracy = float64(right) / float64(res.EvalN)
	}
	if predN > 0 {
		res.MeanOverheadPredicted = predSum / float64(predN)
	}
	if fbN > 0 {
		res.MeanOverheadFallback = fbSum / float64(fbN)
	}
	st := tuner.Stats()
	res.Fallbacks, res.FallbackAgreed = st.Fallbacks, st.FallbackAgreed

	t := &table{header: []string{"No.", "Matrix", "Model Prediction", "Execution", "SMAT", "Best", "Acc", "Overhead"}}
	for _, row := range res.Rows {
		acc := "W"
		if row.Right {
			acc = "R"
		}
		t.add(fmt.Sprint(row.Number), row.Name, row.Prediction, row.Execution,
			row.SmatChoice, row.BestFormat, acc, f2(row.Overhead))
	}
	fmt.Fprintln(cfg.Out, "Table 3: SMAT decision analysis (overhead = tune seconds ÷ one warm basic serial CSR-SpMV on the same matrix)")
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "evaluation-set accuracy: %.1f%% over %d matrices\n", 100*res.EvalAccuracy, res.EvalN)
	fmt.Fprintf(cfg.Out, "mean overhead: predicted path %.1fx, fallback path %.1fx\n",
		res.MeanOverheadPredicted, res.MeanOverheadFallback)
	if res.Fallbacks > 0 {
		fmt.Fprintf(cfg.Out, "model agreement: the fallback's winner was the ruleset's best guess in %d of %d (%.0f%%)\n",
			res.FallbackAgreed, res.Fallbacks, 100*float64(res.FallbackAgreed)/float64(res.Fallbacks))
	}
	return res
}
