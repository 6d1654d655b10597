package autotune_test

import (
	"testing"

	"smat"
	"smat/internal/autotune"
	"smat/internal/oracle"
)

// TestLeaderEntriesAreConfidentOrMeasured pins what lets the decision cache
// serve an entry without a second look at its confidence: a leader caches
// either the execute-and-measure winner (confidence 1) or a prediction above
// its model's threshold, nothing weaker. At one and two threads, under the
// shipped model, each leader's entry over the oracle's specs is read back and
// held to the leader's decision.
func TestLeaderEntriesAreConfidentOrMeasured(t *testing.T) {
	model := smat.DefaultModel()
	var measured, predicted int
	for _, threads := range []int{1, 2} {
		tuner := autotune.New[float64](model, autotune.Config{Threads: threads})
		for _, s := range oracle.Specs() {
			m, err := oracle.BuildCSR[float64](&s)
			if err != nil {
				t.Fatal(err)
			}
			_, d, err := tuner.Tune(m)
			if err != nil {
				t.Fatalf("%d/%s: %v", threads, s.Name, err)
			}
			if d.CacheHit {
				continue // an earlier spec of the same fingerprint led
			}
			e, ok := tuner.CachedEntry(m)
			switch {
			case !ok:
				t.Errorf("%d/%s: the leader cached nothing", threads, s.Name)
			case d.UsedFallback && e.Confidence == 1:
				measured++
			case !d.UsedFallback && e.Confidence > model.ConfidenceThreshold && e.Confidence == d.Confidence:
				predicted++
			default:
				t.Errorf("%d/%s: leader (fallback %v, confidence %g) cached confidence %g against threshold %g",
					threads, s.Name, d.UsedFallback, d.Confidence, e.Confidence, model.ConfidenceThreshold)
			}
		}
		tuner.Close()
	}
	if measured == 0 || predicted == 0 {
		t.Errorf("%d measured and %d predicted leaders: the specs do not reach both kinds of entry", measured, predicted)
	}
	t.Logf("%d measured and %d predicted leaders", measured, predicted)
}
