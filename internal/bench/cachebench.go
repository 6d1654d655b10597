package bench

import (
	"fmt"
	"math"
	"time"

	"smat/internal/autotune"
	"smat/internal/corpus"
	"smat/internal/matrix"
)

// CacheBenchResult compares the serving runtime's tuning regimes on the
// representative matrices: a cold Tune under the model's own threshold
// (usually the predicted path), a cold Tune forced onto the
// execute-and-measure fallback (confidence threshold 0.999 — the regime the
// cache amortises), and a Tune that hits the sharded decision cache
// (feature extraction, fingerprint lookup, format conversion).
type CacheBenchResult struct {
	Rows []CacheBenchRow
	// GeoMeanSpeedup / GeoMeanSpeedupMeasured are geometric means of the
	// per-matrix cold/hit ratios for the predicted-path and forced-fallback
	// cold regimes respectively.
	GeoMeanSpeedup         float64
	GeoMeanSpeedupMeasured float64
	// Stats is the warm tuner's decision-cache counters after the run.
	Stats autotune.CacheStats
}

// CacheBenchRow is one matrix's cold-vs-cached comparison.
type CacheBenchRow struct {
	Number          int
	Name            string
	Chosen          matrix.Format
	Fallback        bool // cold decision took the execute-and-measure path
	ColdSec         float64
	MeasureSec      float64 // cold Tune with the fallback forced (threshold 0.999)
	HitSec          float64
	Speedup         float64
	SpeedupMeasured float64
}

// CacheBench times the decision cache on every representative matrix. Both
// tuners share the model and thread count; the cold tuner runs with caching
// disabled, the warm tuner is primed once and then timed on the hit path.
// Timings are best-of-N to shed scheduler noise.
func CacheBench(cfg Config) *CacheBenchResult {
	cfg = cfg.withDefaults()
	res := &CacheBenchResult{}

	cold := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads, CacheSize: -1})
	measure := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads, CacheSize: -1, ConfidenceThreshold: 0.999})
	warm := autotune.New[float64](cfg.Model, autotune.Config{Threads: cfg.Threads})

	minOver := func(n int, tune func() error) (float64, error) {
		best := 0.0
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := tune(); err != nil {
				return 0, err
			}
			if sec := time.Since(start).Seconds(); i == 0 || sec < best {
				best = sec
			}
		}
		return best, nil
	}

	logSum, logSumMeasured, logN := 0.0, 0.0, 0
	for i, e := range corpus.Representatives(cfg.Scale) {
		m := e.Matrix()
		row := CacheBenchRow{Number: i + 1, Name: e.Name}

		var dec *autotune.Decision
		coldSec, err := minOver(3, func() error {
			_, d, err := cold.Tune(m)
			dec = d
			return err
		})
		if err != nil {
			row.Name += " (error: " + err.Error() + ")"
			res.Rows = append(res.Rows, row)
			continue
		}
		row.Fallback = dec.UsedFallback

		measureSec, err := minOver(2, func() error {
			_, _, err := measure.Tune(m)
			return err
		})
		if err != nil {
			row.Name += " (error: " + err.Error() + ")"
			res.Rows = append(res.Rows, row)
			continue
		}

		if _, _, err := warm.Tune(m); err != nil { // prime the cache
			row.Name += " (error: " + err.Error() + ")"
			res.Rows = append(res.Rows, row)
			continue
		}
		hitSec, err := minOver(5, func() error {
			_, d, err := warm.Tune(m)
			dec = d
			return err
		})
		if err != nil {
			row.Name += " (error: " + err.Error() + ")"
			res.Rows = append(res.Rows, row)
			continue
		}
		row.Chosen = dec.Chosen
		row.ColdSec = coldSec
		row.MeasureSec = measureSec
		row.HitSec = hitSec
		if hitSec > 0 {
			row.Speedup = coldSec / hitSec
			row.SpeedupMeasured = measureSec / hitSec
			logSum += math.Log(row.Speedup)
			logSumMeasured += math.Log(row.SpeedupMeasured)
			logN++
		}
		res.Rows = append(res.Rows, row)
	}
	if logN > 0 {
		res.GeoMeanSpeedup = math.Exp(logSum / float64(logN))
		res.GeoMeanSpeedupMeasured = math.Exp(logSumMeasured / float64(logN))
	}
	res.Stats = warm.Stats().CacheStats

	t := &table{header: []string{"No.", "Matrix", "Chosen", "Path", "Cold (us)", "Measured (us)", "Hit (us)", "Speedup", "vs Measured"}}
	for _, row := range res.Rows {
		path := "predicted"
		if row.Fallback {
			path = "fallback"
		}
		t.add(fmt.Sprint(row.Number), row.Name, row.Chosen.String(), path,
			fmt.Sprintf("%.1f", row.ColdSec*1e6), fmt.Sprintf("%.1f", row.MeasureSec*1e6),
			fmt.Sprintf("%.1f", row.HitSec*1e6),
			fmt.Sprintf("%.1fx", row.Speedup), fmt.Sprintf("%.1fx", row.SpeedupMeasured))
	}
	fmt.Fprintln(cfg.Out, "Decision cache: cold Tune vs cache-hit Tune per representative matrix")
	fmt.Fprintln(cfg.Out, "(Measured = cold Tune with the execute-and-measure fallback forced, threshold 0.999)")
	t.print(cfg.Out)
	t.saveTSV(cfg, "cache")
	st := res.Stats
	fmt.Fprintf(cfg.Out, "geometric-mean speedup: %.1fx over the cold path, %.1fx over the measured path\n",
		res.GeoMeanSpeedup, res.GeoMeanSpeedupMeasured)
	fmt.Fprintf(cfg.Out, "warm tuner cache: %d hits, %d misses, %d shared, %d refreshes, %d/%d entries (hit rate %.1f%%)\n",
		st.Hits, st.Misses, st.Shared, st.Refreshes, st.Size, st.Capacity, 100*st.HitRate())
	return res
}
