// Package autotune implements SMAT's auto-tuning pipeline. Off-line it
// labels matrices with their measured best format, searches the kernel
// library with the paper's performance-table + scoreboard algorithm
// (Section 5.2), and trains the ruleset learning model. On-line it runs the
// paper's Figure 7 procedure: extract features, walk the per-format rule
// groups in DIA→ELL→CSR→COO order, accept a prediction whose confidence
// clears the threshold, and otherwise fall back to execute-and-measure.
package autotune

import (
	"slices"
	"time"
)

// MeasureOptions controls how a single kernel measurement is taken.
type MeasureOptions struct {
	// MinTime is the minimum accumulated runtime per trial; repetitions are
	// calibrated to reach it (default 1ms).
	MinTime time.Duration
	// Trials is the number of independent trials; the fastest is reported,
	// suppressing scheduler noise (default 3).
	Trials int
}

func (o MeasureOptions) withDefaults() MeasureOptions {
	if o.MinTime <= 0 {
		o.MinTime = time.Millisecond
	}
	if o.Trials <= 0 {
		o.Trials = 3
	}
	return o
}

// MeasureSecPerOp times op and returns the best-case seconds per invocation
// over opts.Trials trials (see timeTrials for what a trial runs).
func MeasureSecPerOp(op func(), opts MeasureOptions) float64 {
	return slices.Min(timeTrials(op, opts))
}

// timeTrials is the one timing loop: it returns each trial's seconds per
// invocation, in run order. The first invocation calibrates the repetition
// count a trial needs to accumulate MinTime. When that run alone meets MinTime
// and more trials follow, it is the first of them — a long-enough op timed
// over N ≥ 2 trials runs N times, not N+1, and the best of them forgives a
// cold first one. Otherwise it is a warm-up: a single trial must not be the
// op's first run (first-use allocations, cold caches, parked workers), and a
// short op is repeated within every trial.
func timeTrials(op func(), opts MeasureOptions) []float64 {
	opts = opts.withDefaults()
	trials := make([]float64, 0, opts.Trials)
	start := time.Now()
	op()
	once := time.Since(start)
	reps := 1
	switch {
	case once >= opts.MinTime:
		if opts.Trials > 1 {
			trials = append(trials, once.Seconds())
		}
	case once > 0:
		reps = int(opts.MinTime/once) + 1
	}
	for len(trials) < opts.Trials {
		start = time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		trials = append(trials, time.Since(start).Seconds()/float64(reps))
	}
	return trials
}

// GFLOPS converts an operation count and per-op seconds to GFLOPS.
func GFLOPS(flops int64, secPerOp float64) float64 {
	if secPerOp <= 0 {
		return 0
	}
	return float64(flops) / secPerOp / 1e9
}
