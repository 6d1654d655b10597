package bench

import (
	"math"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/matrix"
)

// every returns every k-th entry of es, from the first: the harness's one
// stride sample (cfg.Stride).
func every(es []*corpus.Entry, k int) []*corpus.Entry {
	var out []*corpus.Entry
	for i := 0; i < len(es); i += max(k, 1) {
		out = append(out, es[i])
	}
	return out
}

// heldOut is the stride-sampled evaluation split: the corpus entries past
// corpus.TrainN in the seed's shuffle, none of which smat-train labels. Every
// experiment that scores a model on matrices it did not train on takes them
// from here.
func heldOut(cfg Config) []*corpus.Entry {
	_, eval := corpus.New(cfg.Scale, cfg.Seed).Split(corpus.TrainN, cfg.Seed)
	return every(eval, cfg.Stride)
}

// label builds each entry's matrix, labels it with a labeler timing the
// kernels of cfg.Model's class at threads, and hands both to visit. The
// labeler is closed on return.
func label(cfg Config, threads int, es []*corpus.Entry, visit func(*corpus.Entry, *matrix.CSR[float64], autotune.Label)) {
	l := autotune.NewLabeler(cfg.Model.Class(threads).Choice(), threads, cfg.Measure)
	defer l.Close()
	for _, e := range es {
		m := e.Matrix()
		visit(e, m, l.Label(m))
	}
}

// score is one model's record on the held-out matrices: its decisions
// against the labeler's verdicts, and their overhead in CSR-SpMV units
// (overheadSpMV).
type score struct {
	// threads is what the tuner ran at (capped at GOMAXPROCS); stats its
	// counters after the last tune.
	threads int
	stats   autotune.Stats
	// n counts the scored decisions: a tune that failed, or a choice the
	// labeler did not time, is not scored.
	n, right, fallbacks int
	// Sums of log(best/chosen), log(best) and log(chosen) labeled GFLOPS.
	logLoss, logBest, logChosen float64
	// Overhead sums on the predicted path and on the fallback path; zero
	// unless scoreHeldOut was asked to time them.
	predOverhead, fbOverhead float64
}

func (s *score) share(k int) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(k) / float64(s.n)
}

func (s *score) geomean(logSum float64) float64 {
	if s.n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(s.n))
}

// agreement is the share of the tuner's fallbacks whose measured winner was
// the ruleset's best guess (Stats().FallbackAgreed / Fallbacks).
func (s *score) agreement() float64 {
	if s.stats.Fallbacks == 0 {
		return 0
	}
	return float64(s.stats.FallbackAgreed) / float64(s.stats.Fallbacks)
}

// scoreHeldOut tunes every held-out matrix with each model, on an uncached
// tuner at threads so that every decision is made afresh, and scores the
// choice against the verdict of the labeler for cfg.Model's class at threads.
// With overhead set it also times each matrix's CSR-SpMV unit (csrUnitSec)
// and sums the decisions' overheads in it; callers that report no overhead
// leave it unset, skip the timing and read zero sums (an untimed unit is 0,
// which overheadSpMV reads as no overhead). Every tuner it opens is closed on
// return.
func scoreHeldOut(cfg Config, threads int, overhead bool, models ...*autotune.Model) []score {
	scores := make([]score, len(models))
	tuners := make([]*autotune.Tuner[float64], len(models))
	for i, model := range models {
		tuners[i] = autotune.New[float64](model, autotune.Config{Threads: threads, CacheSize: -1})
		defer tuners[i].Close()
	}
	label(cfg, threads, heldOut(cfg), func(_ *corpus.Entry, m *matrix.CSR[float64], lbl autotune.Label) {
		best := lbl.GFLOPS[lbl.Best]
		var unit float64
		if overhead {
			unit = csrUnitSec(m, cfg.Measure)
		}
		for i, t := range tuners {
			_, dec, err := t.Tune(m)
			if err != nil {
				continue
			}
			chosen := lbl.GFLOPS[dec.Chosen]
			if chosen <= 0 || best <= 0 {
				continue
			}
			s := &scores[i]
			s.n++
			if dec.Chosen == lbl.Best {
				s.right++
			}
			if dec.UsedFallback {
				s.fallbacks++
				s.fbOverhead += overheadSpMV(dec, unit)
			} else {
				s.predOverhead += overheadSpMV(dec, unit)
			}
			s.logLoss += math.Log(best / chosen)
			s.logBest += math.Log(best)
			s.logChosen += math.Log(chosen)
		}
	})
	for i, t := range tuners {
		scores[i].threads, scores[i].stats = t.Threads(), t.Stats()
	}
	return scores
}
