package bench

import (
	"fmt"
	"math"
	"math/rand"

	"smat"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// ConvertResult is the amortised-conversion experiment: wall-clock time to
// finish k SpMVs under four conversion policies. "Never" pins tuned CSR (zero
// conversion cost), "eager" converts to the asymptotic winner inline before
// the first SpMV, "amortized" passes the iteration hint k and lets the payoff
// model decide — converting, before the first SpMV, only when k clears
// break-even — and "deferred" is what an unhinted CSRSpMV on a never-seen
// structure does: serve tuned CSR and convert on the call whose products have
// paid for the predicted conversion (the ski-rental rule, smat.Tuner.CSRSpMV).
//
// NsPerSlot is each format's conversion cost per element slot written, the
// constant the deferred policy predicts a conversion's cost with.
type ConvertResult struct {
	Ks []int `json:"ks"`

	Rows      []ConvertRow       `json:"rows"`
	NsPerSlot map[string]float64 `json:"convert_ns_per_slot"`
}

// ConvertRow is one (workload class, k) policy comparison. Seconds are
// best-of-trials wall-clock for tune + k SpMVs, tuning included — the cost a
// caller who owns the matrix for exactly k products actually pays.
type ConvertRow struct {
	Class      string `json:"class"`
	Asymptotic string `json:"asymptotic_format"`
	K          int    `json:"k"`

	NeverSec     float64 `json:"never_sec"`
	EagerSec     float64 `json:"eager_sec"`
	AmortizedSec float64 `json:"amortized_sec"`
	DeferredSec  float64 `json:"deferred_sec"`

	// BreakEvenIters and AmortizedChosen describe the amortised policy's
	// decision at this k.
	BreakEvenIters  int    `json:"break_even_iters"`
	AmortizedChosen string `json:"amortized_chosen"`

	// DeferredConvertAt is the call the deferred policy converts at
	// (Decision.ConvertAt; 0 when the tune did not defer) and DeferredChosen
	// the format it serves after the k-th product.
	DeferredConvertAt int    `json:"deferred_convert_at"`
	DeferredChosen    string `json:"deferred_chosen"`

	// BestPolicy is the faster of never/eager; AmortizedVsBestPct and
	// DeferredVsBestPct are how far the amortised and deferred policies landed
	// from it (negative = faster than both).
	BestPolicy         string  `json:"best_policy"`
	AmortizedVsBestPct float64 `json:"amortized_vs_best_pct"`
	DeferredVsBestPct  float64 `json:"deferred_vs_best_pct"`
}

// convertKs is the iteration-count sweep: from a single product (conversion
// can never pay) to deep amortisation.
var convertKs = []int{1, 4, 16, 64, 256}

// convertWorkload is one class of the experiment and its matrix.
type convertWorkload struct {
	class string
	m     *matrix.CSR[float64]
}

// convertWorkloads are two classes where conversion may compete: a banded
// stencil (DIA-affine) and a constant-degree graph (ELL-affine). CSR- and
// COO-affine classes are left out — their asymptotic winner needs no
// conversion, so every policy degenerates to "never". The shipped model at two
// threads picks CSR for the ELL-affine graph too (EXPERIMENTS.md).
func convertWorkloads(cfg Config) []convertWorkload {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := func(n int) int { return max(64, int(float64(n)*cfg.Scale)) }
	return []convertWorkload{
		{"dia-affine", gen.Laplacian2D5pt[float64](dim(700), dim(700))},
		{"ell-affine", gen.ConstantDegree[float64](dim(400000), 8, rng)},
	}
}

// convertTimeToK measures the wall-clock seconds from TuneOpts to the k-th
// completed SpMV, best of trials, and returns the last trial's decision.
func convertTimeToK(t *autotune.Tuner[float64], m *matrix.CSR[float64],
	opts autotune.TuneOptions, k, trials int, x, y []float64) (float64, *autotune.Decision, error) {

	var d *autotune.Decision
	var err error
	sec := bestOfSec(trials, func() {
		if err != nil {
			return // a tune that failed once fails every trial
		}
		var op *autotune.Operator[float64]
		if op, d, err = t.TuneOpts(m, opts); err != nil {
			return
		}
		for range k {
			op.MulVec(x, y)
		}
	})
	if err != nil {
		return 0, nil, err
	}
	return sec, d, nil
}

// deferredTimeToK measures the deferred policy: the seconds from a fresh
// handle's first unhinted CSRSpMV to its k-th, best of trials, on a tuner
// without a decision cache, so that every trial leads; and the last trial's
// decision after the k-th product. The handles are wrapped before the trials,
// untimed, and each is dropped after its trial, before the next one's
// collection.
func deferredTimeToK(t *smat.Tuner[float64], m *matrix.CSR[float64], k, trials int, x, y []float64) (float64, smat.Decision, error) {
	handles := make([]*smat.Matrix[float64], max(trials, 1))
	var err error
	for i := range handles {
		if handles[i], err = smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals); err != nil {
			return 0, smat.Decision{}, err
		}
	}
	var d smat.Decision
	trial := 0
	sec := bestOfSec(trials, func() {
		a := handles[trial]
		handles[trial], trial = nil, trial+1
		for i := 0; i < k && err == nil; i++ {
			err = t.CSRSpMV(a, x, y)
		}
		if err == nil {
			d = a.Operator().Decision()
		}
	})
	if err != nil {
		return 0, d, err
	}
	return sec, d, nil
}

// convertNsPerSlot measures each non-CSR format's conversion through a
// format-hinted tune (the one build site, on the tuner's pool) over the
// workloads whose fill guard admits it: the best of trials per workload,
// summed, over the slots written, in nanoseconds.
func convertNsPerSlot(tuner *autotune.Tuner[float64], ws []convertWorkload, trials int) map[string]float64 {
	out := map[string]float64{}
	for _, f := range []matrix.Format{matrix.FormatDIA, matrix.FormatELL, matrix.FormatCOO} {
		var sec, stored float64
		for _, w := range ws {
			best := math.Inf(1)
			var d *autotune.Decision
			var err error
			for range trials {
				if _, d, err = tuner.TuneOpts(w.m, autotune.TuneOptions{FormatHint: f, HasFormatHint: true}); err != nil {
					break
				}
				best = min(best, d.ConvertSec)
			}
			if err == nil {
				sec += best
				stored += float64(d.ConvertStored)
			}
		}
		if stored > 0 {
			out[f.String()] = sec * 1e9 / stored
		}
	}
	return out
}

// ConvertBench runs the amortised-conversion experiment: for each workload
// class and each k, time-to-k-SpMVs under the never / eager / amortized
// policies, all acquiring their operator through the same TuneOpts entry
// point so the three policies pay comparable acquisition costs, and under the
// deferred policy through the public CSRSpMV on a fresh handle. The decision
// cache is warmed by one hinted leader tune per class, so the amortised
// policy exercises the cache-hit path with recorded payoff measurements:
// below break-even it serves tuned CSR, at or above it converts inline.
func ConvertBench(cfg Config) *ConvertResult {
	cfg = cfg.withDefaults()
	res := &ConvertResult{Ks: convertKs}

	trials := max(cfg.Measure.Trials, 3)
	lazy := smat.NewTuner[float64](cfg.Model, smat.WithThreads(cfg.Threads), smat.WithCacheSize(0))
	defer lazy.Close()

	ws := convertWorkloads(cfg)
	for _, w := range ws {
		tuner := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})

		// Warm the decision cache: the leader pays the full decision once,
		// recording conversion cost and — because it carries an iteration
		// hint; an un-hinted leader measures no rates — the two per-SpMV
		// rates.
		_, lead, err := tuner.TuneOpts(w.m, autotune.TuneOptions{Iterations: convertKs[len(convertKs)-1]})
		if err != nil {
			fmt.Fprintf(cfg.Out, "(%s: leader tune failed: %v)\n", w.class, err)
			tuner.Close()
			continue
		}
		asym := lead.Asymptotic

		x := make([]float64, w.m.Cols)
		for i := range x {
			x[i] = 1 + float64(i%7)/8
		}
		y := make([]float64, w.m.Rows)

		for _, k := range convertKs {
			never, _, err := convertTimeToK(tuner, w.m,
				autotune.TuneOptions{FormatHint: matrix.FormatCSR, HasFormatHint: true}, k, trials, x, y)
			if err == nil {
				var eager float64
				eager, _, err = convertTimeToK(tuner, w.m,
					autotune.TuneOptions{FormatHint: asym, HasFormatHint: true}, k, trials, x, y)
				if err == nil {
					var amort float64
					var d *autotune.Decision
					amort, d, err = convertTimeToK(tuner, w.m,
						autotune.TuneOptions{Iterations: k}, k, trials, x, y)
					var deferred float64
					var dd smat.Decision
					if err == nil {
						deferred, dd, err = deferredTimeToK(lazy, w.m, k, trials, x, y)
					}
					if err == nil {
						row := ConvertRow{
							Class:             w.class,
							Asymptotic:        asym.String(),
							K:                 k,
							NeverSec:          never,
							EagerSec:          eager,
							AmortizedSec:      amort,
							BreakEvenIters:    d.BreakEvenIters,
							AmortizedChosen:   d.Chosen.String(),
							DeferredSec:       deferred,
							DeferredConvertAt: dd.ConvertAt,
							DeferredChosen:    dd.Chosen.String(),
							BestPolicy:        "never",
						}
						best := never
						if eager < best {
							best, row.BestPolicy = eager, "eager"
						}
						if best > 0 {
							row.AmortizedVsBestPct = (amort/best - 1) * 100
							row.DeferredVsBestPct = (deferred/best - 1) * 100
						}
						res.Rows = append(res.Rows, row)
					}
				}
			}
			if err != nil {
				fmt.Fprintf(cfg.Out, "(%s k=%d: %v)\n", w.class, k, err)
			}
		}
		tuner.Close()
	}
	tuner := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})
	res.NsPerSlot = convertNsPerSlot(tuner, ws, trials)
	tuner.Close()

	t := &table{header: []string{"Class", "Asym", "k", "Never (ms)", "Eager (ms)", "Amortized (ms)", "Break-even", "Chosen", "Vs best", "Deferred (ms)", "Converts at", "Vs best"}}
	for _, row := range res.Rows {
		be := fmt.Sprint(row.BreakEvenIters)
		if row.BreakEvenIters == autotune.NeverAmortize {
			be = "never"
		}
		t.add(row.Class, row.Asymptotic, fmt.Sprint(row.K),
			fmt.Sprintf("%.3f", row.NeverSec*1e3),
			fmt.Sprintf("%.3f", row.EagerSec*1e3),
			fmt.Sprintf("%.3f", row.AmortizedSec*1e3),
			be, row.AmortizedChosen,
			fmt.Sprintf("%+.1f%%", row.AmortizedVsBestPct),
			fmt.Sprintf("%.3f", row.DeferredSec*1e3),
			fmt.Sprint(row.DeferredConvertAt),
			fmt.Sprintf("%+.1f%%", row.DeferredVsBestPct))
	}
	fmt.Fprintf(cfg.Out, "Amortized conversion: time to k SpMVs by policy (%d threads)\n", cfg.Threads)
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "Conversion cost per stored slot (ns): DIA %.2f, ELL %.2f, COO %.2f\n",
		res.NsPerSlot["DIA"], res.NsPerSlot["ELL"], res.NsPerSlot["COO"])
	return res
}
