package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// ConvertResult is the amortised-conversion experiment: wall-clock time to
// finish k SpMVs under the three conversion policies the TuneOptions API
// expresses. "Never" pins tuned CSR (zero conversion cost), "eager" converts
// to the asymptotic winner inline before the first SpMV, and "amortized"
// passes the iteration hint k and lets the payoff model decide — converting,
// before the first SpMV, only when k clears break-even.
type ConvertResult struct {
	Threads int     `json:"threads"`
	Scale   float64 `json:"scale"`
	Ks      []int   `json:"ks"`

	// SteadyAllocsPerOp is the malloc count per call on the pooled serving
	// path of a hinted cache hit that converted (MulVec and tiled MulVecBatch
	// alternating), measured over 200 calls; the steady-state contract is 0.
	SteadyAllocsPerOp float64 `json:"steady_allocs_per_op"`

	Rows []ConvertRow `json:"rows"`
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

	// BreakEvenIters and AmortizedChosen describe the amortised policy's
	// decision at this k.
	BreakEvenIters  int    `json:"break_even_iters"`
	AmortizedChosen string `json:"amortized_chosen"`

	// BestPolicy is the faster of never/eager; AmortizedVsBestPct is how far
	// the amortised policy landed from it (negative = faster than both).
	BestPolicy         string  `json:"best_policy"`
	AmortizedVsBestPct float64 `json:"amortized_vs_best_pct"`
}

// convertKs is the iteration-count sweep: from a single product (conversion
// can never pay) to deep amortisation.
var convertKs = []int{1, 4, 16, 64, 256}

// convertWorkloads are two classes where conversion may compete: a banded
// stencil (DIA-affine) and a constant-degree graph (ELL-affine). CSR- and
// COO-affine classes are left out — their asymptotic winner needs no
// conversion, so every policy degenerates to "never". The shipped model at two
// threads picks CSR for the ELL-affine graph too (EXPERIMENTS.md).
func convertWorkloads(cfg Config) []struct {
	class string
	m     *matrix.CSR[float64]
} {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := func(n int) int { return max(64, int(float64(n)*cfg.Scale)) }
	return []struct {
		class string
		m     *matrix.CSR[float64]
	}{
		{"dia-affine", gen.Laplacian2D5pt[float64](dim(700), dim(700))},
		{"ell-affine", gen.ConstantDegree[float64](dim(400000), 8, rng)},
	}
}

// convertTimeToK measures the wall-clock seconds from TuneOpts to the k-th
// completed SpMV, best of trials.
func convertTimeToK(t *autotune.Tuner[float64], m *matrix.CSR[float64],
	opts autotune.TuneOptions, k, trials int, x, y []float64) (float64, *autotune.Decision, error) {

	best := math.MaxFloat64
	var d *autotune.Decision
	for i := 0; i < trials; i++ {
		start := time.Now()
		op, di, err := t.TuneOpts(m, opts)
		if err != nil {
			return 0, nil, err
		}
		for j := 0; j < k; j++ {
			op.MulVec(x, y)
		}
		sec := time.Since(start).Seconds()
		if sec < best {
			best = sec
		}
		d = di
	}
	return best, d, nil
}

// convertSteadyAllocs measures mallocs per call on the pooled serving path
// of an operator a hinted cache hit converted, alternating MulVec and a
// three-vector MulVecBatch (the converted format's tiled kernel) after one
// warm-up of each. t's cache must hold m's costed entry.
func convertSteadyAllocs(t *autotune.Tuner[float64], m *matrix.CSR[float64]) (float64, error) {
	op, d, err := t.TuneOpts(m, autotune.TuneOptions{Iterations: 1 << 20})
	if err != nil {
		return 0, err
	}
	if !d.CacheHit || d.Amortized {
		return 0, fmt.Errorf("hinted tune served %v without converting a cache hit", d.Chosen)
	}

	const bw = 3
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%7)/8
	}
	y := make([]float64, m.Rows)
	xb := make([]float64, m.Cols*bw)
	for i := range xb {
		xb[i] = 1 + float64(i%5)/8
	}
	yb := make([]float64, m.Rows*bw)
	op.MulVec(x, y)
	op.MulVecBatch(xb, yb, bw)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const calls = 100
	for i := 0; i < calls; i++ {
		op.MulVec(x, y)
		op.MulVecBatch(xb, yb, bw)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / (2 * calls), nil
}

// ConvertBench runs the amortised-conversion experiment: for each workload
// class and each k, time-to-k-SpMVs under the never / eager / amortized
// policies, all acquiring their operator through the same TuneOpts entry
// point so the three policies pay comparable acquisition costs. The decision
// cache is warmed by one hinted leader tune per class, so the amortised
// policy exercises the cache-hit path with recorded payoff measurements:
// below break-even it serves tuned CSR, at or above it converts inline.
func ConvertBench(cfg Config) *ConvertResult {
	cfg = cfg.withDefaults()
	res := &ConvertResult{Threads: cfg.Threads, Scale: cfg.Scale, Ks: convertKs}

	trials := cfg.Measure.Trials
	if trials < 3 {
		trials = 3
	}

	for _, w := range convertWorkloads(cfg) {
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
					if err == nil {
						row := ConvertRow{
							Class:           w.class,
							Asymptotic:      asym.String(),
							K:               k,
							NeverSec:        never,
							EagerSec:        eager,
							AmortizedSec:    amort,
							BreakEvenIters:  d.BreakEvenIters,
							AmortizedChosen: d.Chosen.String(),
							BestPolicy:      "never",
						}
						best := never
						if eager < best {
							best, row.BestPolicy = eager, "eager"
						}
						if best > 0 {
							row.AmortizedVsBestPct = (amort/best - 1) * 100
						}
						res.Rows = append(res.Rows, row)
					}
				}
			}
			if err != nil {
				fmt.Fprintf(cfg.Out, "(%s k=%d: %v)\n", w.class, k, err)
			}
		}

		if w.class == "dia-affine" && asym != matrix.FormatCSR {
			allocs, err := convertSteadyAllocs(tuner, w.m)
			if err != nil {
				fmt.Fprintf(cfg.Out, "(%s steady allocs: %v)\n", w.class, err)
			}
			res.SteadyAllocsPerOp = allocs
		}
		tuner.Close()
	}

	t := &table{header: []string{"Class", "Asym", "k", "Never (ms)", "Eager (ms)", "Amortized (ms)", "Break-even", "Chosen", "Vs best"}}
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
			fmt.Sprintf("%+.1f%%", row.AmortizedVsBestPct))
	}
	fmt.Fprintf(cfg.Out, "Amortized conversion: time to k SpMVs by policy (%d threads)\n", cfg.Threads)
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "steady-state allocs/op after a converting cache hit: %g\n", res.SteadyAllocsPerOp)
	t.saveTSV(cfg, "convert")
	return res
}
