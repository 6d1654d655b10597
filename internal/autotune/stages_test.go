package autotune

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// TestPayoffOutcomes pins the payoff stage over its whole input space:
// iteration hint none / below / at / above a break-even of 10, a CSR or a
// non-CSR choice, SyncConvert, a HoldConversion channel, one or four CPUs.
func TestPayoffOutcomes(t *testing.T) {
	const breakEven = 10
	hold := make(chan struct{})
	for _, iters := range []int{0, breakEven - 1, breakEven, breakEven + 1} {
		for _, f := range []matrix.Format{matrix.FormatCSR, matrix.FormatDIA} {
			for _, sync := range []bool{false, true} {
				for _, held := range []bool{false, true} {
					for _, cpus := range []int{1, 4} {
						opts := TuneOptions{Iterations: iters, SyncConvert: sync}
						if held {
							opts.HoldConversion = hold
						}
						var want outcome
						switch {
						case iters == 0, f == matrix.FormatCSR:
							want = serveChosen // asymptotic, or nothing to convert
						case iters < breakEven:
							want = serveIncumbent
						case sync:
							want = serveChosen
						case cpus == 1 && !held:
							want = serveChosen // no spare core: convert inline
						default:
							want = serveSwap
						}
						if got := payoff(f, breakEven, opts, cpus); got != want {
							t.Errorf("payoff(%v, break-even %d, iterations %d, sync %v, held %v, %d cpus) = %d, want %d",
								f, breakEven, iters, sync, held, cpus, got, want)
						}
					}
				}
			}
		}
	}
	// A choice that never amortises serves tuned CSR at any hint; one whose
	// rates were never probed (break-even 0: an empty matrix) is served as is.
	if got := payoff(matrix.FormatDIA, NeverAmortize, TuneOptions{Iterations: 1 << 20, SyncConvert: true}, 4); got != serveIncumbent {
		t.Errorf("never-amortising choice: outcome %d, want the incumbent", got)
	}
	if got := payoff(matrix.FormatDIA, 0, TuneOptions{Iterations: 1, SyncConvert: true}, 4); got != serveChosen {
		t.Errorf("unprobed choice: outcome %d, want the choice", got)
	}
}

// allocated returns the heap bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProbeWorkspaceBudget is the allocation budget of the probe stage, in
// vector-lengths (one []float64 of the matrix dimension): beyond feature
// extraction and the conversions it performs, a leader tune allocates the one
// probe workspace — an x and a y, for the baseline and the rates — and
// nothing else of vector size, whichever selector led and with or without an
// iteration hint; a cache hit allocates none. The batch-crossover probe owns
// no buffers of the tune's: it runs on the first batched call, in that
// call's.
func TestProbeWorkspaceBudget(t *testing.T) {
	if raceEnabledAutotune {
		t.Skip("allocation accounting is not stable under -race")
	}
	const n = 100_000
	m := gen.MultiDiagonal[float64](n, []int{-1, 0, 1}, rand.New(rand.NewSource(31)))
	const vectorLength = n * 8
	const workspace = 2

	converting := func(maxFill float64, formats ...matrix.Format) uint64 {
		return allocated(func() {
			for _, f := range formats {
				if _, err := kernels.ConvertWithParams(m, f, maxFill, kernels.Params{}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	extracting := allocated(func() { features.Extract(m) })

	for _, c := range []struct {
		name      string
		model     *Model
		opts      TuneOptions
		converted uint64 // bytes of the conversions the leader performs
	}{
		{"predicted-CSR", modelAlways(matrix.FormatCSR, 0.99), TuneOptions{}, 0},
		{"predicted-DIA", modelAlways(matrix.FormatDIA, 0.99), TuneOptions{}, converting(DefaultMaxFill, matrix.FormatDIA)},
		{"predicted-DIA-hinted", modelAlways(matrix.FormatDIA, 0.99), TuneOptions{Iterations: 1 << 20, SyncConvert: true}, converting(DefaultMaxFill, matrix.FormatDIA)},
		{"measured", modelAlways(matrix.FormatDIA, 0.30), TuneOptions{}, converting(fallbackMaxFill, matrix.Formats[:]...)},
	} {
		tuner := New[float64](c.model, Config{Threads: 2})
		var d *Decision
		tune := func() {
			var err error
			if _, d, err = tuner.TuneOpts(m, c.opts); err != nil {
				t.Fatal(err)
			}
		}
		vectors := func(total, conversions uint64) float64 {
			return (float64(total) - float64(extracting) - float64(conversions)) / vectorLength
		}

		lead := vectors(allocated(tune), c.converted)
		if d.CacheHit || d.CSRSpMVSec <= 0 {
			t.Fatalf("%s: first tune did not lead and probe: %+v", c.name, d)
		}
		if lead < workspace || lead >= workspace+1 {
			t.Errorf("%s: leader allocated %.2f vector-lengths beyond extraction and conversion, want the %d of one probe workspace",
				c.name, lead, workspace)
		}

		// The hit converts the leader's winner and allocates no workspace.
		winner := d.Chosen
		hit := vectors(allocated(tune), converting(DefaultMaxFill, winner))
		if !d.CacheHit || d.Chosen != winner {
			t.Fatalf("%s: second tune did not hit the leader's entry: %+v", c.name, d)
		}
		if hit >= 1 {
			t.Errorf("%s: cache hit allocated %.2f vector-lengths beyond extraction and conversion, want none", c.name, hit)
		}
		tuner.Close()
	}
}

// TestLeaderDecisionOwnsItsSeconds: each Decision second is written by one
// stage, so on a leader they are present exactly when their stage ran — and a
// stage runs only when the call consumes its answer: the payoff rates only
// under an iteration hint, the batch crossover never while tuning.
func TestLeaderDecisionOwnsItsSeconds(t *testing.T) {
	m := gen.MultiDiagonal[float64](3000, []int{-1, 0, 1}, rand.New(rand.NewSource(32)))
	for _, c := range []struct {
		conf              float64
		iterations        int
		hint              bool
		fallback, weighed bool
	}{
		{conf: 0.99},
		{conf: 0.99, iterations: 1 << 20, weighed: true},
		{conf: 0.30, fallback: true},
		{conf: 0.30, iterations: 1 << 20, fallback: true, weighed: true},
		{conf: 0.99, hint: true},
		{conf: 0.99, iterations: 1 << 20, hint: true},
	} {
		tuner := New[float64](modelAlways(matrix.FormatDIA, c.conf), Config{Threads: 2, CacheSize: -1})
		op, d, err := tuner.TuneOpts(m, TuneOptions{Iterations: c.iterations, SyncConvert: true, FormatHint: matrix.FormatDIA, HasFormatHint: c.hint})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("conf %.2f iterations %d hint %v", c.conf, c.iterations, c.hint)
		if d.FeatureSec <= 0 || d.CSRSpMVSec <= 0 {
			t.Errorf("%s: extract/baseline seconds %g %g, want both positive", label, d.FeatureSec, d.CSRSpMVSec)
		}
		if d.BatchProbeSec != 0 || op.BatchCrossover() != 0 {
			t.Errorf("%s: crossover %d probed in %gs while tuning, want neither", label, op.BatchCrossover(), d.BatchProbeSec)
		}
		if (d.FallbackSec > 0) != c.fallback {
			t.Errorf("%s: FallbackSec %g, fallback ran: %v", label, d.FallbackSec, c.fallback)
		}
		weighed := c.weighed && d.Asymptotic != matrix.FormatCSR
		if (d.AmortProbeSec > 0) != weighed || (d.BreakEvenIters > 0) != weighed {
			t.Errorf("%s: AmortProbeSec %g break-even %d on an asymptotic %v, weighed: %v", label, d.AmortProbeSec, d.BreakEvenIters, d.Asymptotic, c.weighed)
		}
		tuner.Close()
	}
}
