package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// SteadyResult is the serial-vs-pooled size sweep kernels.SerialWork and the
// pool's spin budget are read off: per format, one kernel run at one thread
// against the same kernel pooled, from ~1k to ~1M stored entries.
type SteadyResult struct {
	Rows []CutoffRow `json:"rows"`

	// CutoffGapUs is the idle gap of the gapped column. DerivedSerialWork is the
	// smallest swept size from which the pooled path wins back to back in
	// every format — the constant's column — and DerivedGappedWork the same
	// for the first call after the gap: the size below which a dispatch that
	// has to wake its workers loses to the serial body. 0 means the pool
	// never wins that column at this scale.
	CutoffGapUs       float64 `json:"cutoff_gap_us"`
	DerivedSerialWork int     `json:"derived_serial_work"`
	DerivedGappedWork int     `json:"derived_gapped_work"`
}

// CutoffRow is one (format, size) point of the cutoff sweep: one kernel run
// serially against the same kernel pooled at cfg.Threads, the latter on a
// Partitioned handle so that it runs on the pool whatever the size. Both are
// called back to back and with an idle gap before every call, long enough for
// the workers to have parked.
type CutoffRow struct {
	Format        string  `json:"format"`
	Kernel        string  `json:"kernel"`
	Stored        int     `json:"stored"`
	SerialSec     float64 `json:"serial_sec_per_op"`
	PooledSec     float64 `json:"pooled_sec_per_op"`
	SerialGapSec  float64 `json:"serial_gap_sec_per_op"`
	PooledGapSec  float64 `json:"pooled_gap_sec_per_op"`
	Speedup       float64 `json:"speedup"`
	SpeedupGapped float64 `json:"speedup_gapped"`
}

// cutoffGap is the idle gap of the sweep's gapped columns. What a dispatch
// pays after a gap does not depend on its length once the workers have spent
// their spin budget (≈ 100 µs) and parked — the first SpMV after a solver's
// BLAS-1 phase, or after a request's tuning — so the gap is twice the budget.
const cutoffGap = 200 * time.Microsecond

// cutoffKernels names, per format, the kernel the sweep times: the shipped
// model's pick, a partitioned instance, run serially (its one-thread
// arithmetic) against pooled.
var cutoffKernels = []struct {
	format matrix.Format
	kernel string
	build  func(stored int, rng *rand.Rand) *matrix.CSR[float64]
}{
	{matrix.FormatCSR, "csr_parallel_nnz_unroll4", func(s int, rng *rand.Rand) *matrix.CSR[float64] {
		return gen.RandomUniform[float64](s/8, s/8, 8, rng)
	}},
	{matrix.FormatCOO, "coo_parallel_unroll4", func(s int, rng *rand.Rand) *matrix.CSR[float64] {
		return gen.RandomUniform[float64](s/8, s/8, 8, rng)
	}},
	{matrix.FormatDIA, "dia_blocked_parallel", func(s int, rng *rand.Rand) *matrix.CSR[float64] {
		return gen.MultiDiagonal[float64](s/5, []int{-2, -1, 0, 1, 2}, rng)
	}},
	{matrix.FormatELL, "ell_width_parallel", func(s int, rng *rand.Rand) *matrix.CSR[float64] {
		return gen.ConstantDegree[float64](s/4, 4, rng)
	}},
}

// Steady times serial against pooled from ~1k to ~1M stored entries (scaled
// by cfg.Scale at the top end) per format and derives the smallest size from
// which pooled wins in every format: back to back (SerialWork's column) and
// on the first call after the gap.
func Steady(cfg Config) *SteadyResult {
	cfg = cfg.withDefaults()
	res := &SteadyResult{CutoffGapUs: float64(cutoffGap.Microseconds())}
	lib := kernels.NewLibrary[float64]()
	pool := kernels.NewPool[float64](cfg.Threads)
	defer pool.Close()
	rng := rand.New(rand.NewSource(cfg.Seed))
	top := int(float64(1<<20) * cfg.Scale)
	// A column's call count is sized for the default 1 ms measurement window
	// and shrinks with a shorter one, never below 30 calls.
	callShare := 1.0
	if mt := cfg.Measure.MinTime; mt > 0 {
		callShare = min(1, mt.Seconds()/time.Millisecond.Seconds())
	}
	warmFrom := make([]winsFrom, len(cutoffKernels))
	coldFrom := make([]winsFrom, len(cutoffKernels))
	for ci, c := range cutoffKernels {
		k := lib.Lookup(c.kernel)
		for stored := 1 << 10; stored <= top; stored <<= 1 {
			m := c.build(stored, rng)
			mat, err := kernels.Convert(m, c.format, 0)
			if err != nil {
				continue
			}
			forced := mat.Partitioned()
			x := make([]float64, m.Cols)
			for i := range x {
				x[i] = 1 + float64(i%7)/8
			}
			y := make([]float64, m.Rows)
			runners := []func(){
				func() { k.Run(mat, x, y, 1) },
				func() { k.RunPooled(forced, x, y, pool) },
			}
			calls := max(30, int(float64(min(2000, max(30, (4<<20)/stored)))*callShare))
			b2b := interleavedMedians(cfg.Measure.Trials, calls, 0, runners)
			gapped := interleavedMedians(cfg.Measure.Trials, calls, cutoffGap, runners)
			row := CutoffRow{
				Format: c.format.String(), Kernel: k.Name, Stored: mat.Stored(),
				SerialSec: b2b[0], PooledSec: b2b[1], SerialGapSec: gapped[0], PooledGapSec: gapped[1],
				Speedup: b2b[0] / b2b[1], SpeedupGapped: gapped[0] / gapped[1],
			}
			res.Rows = append(res.Rows, row)
			warmFrom[ci].note(stored, row.Speedup > 1)
			coldFrom[ci].note(stored, row.SpeedupGapped > 1)
		}
	}
	res.DerivedSerialWork = derivedCutoff(warmFrom)
	res.DerivedGappedWork = derivedCutoff(coldFrom)

	us := func(sec float64) string { return fmt.Sprintf("%.1f", sec*1e6) }
	ratio := func(r float64) string { return fmt.Sprintf("%.2fx", r) }
	t := &table{header: []string{"Format", "Stored", "Serial (us)", "Pooled (us)", "Speedup", "Serial gapped (us)", "Pooled gapped (us)", "Speedup gapped"}}
	for _, row := range res.Rows {
		t.add(row.Format, fmt.Sprint(row.Stored),
			us(row.SerialSec), us(row.PooledSec), ratio(row.Speedup),
			us(row.SerialGapSec), us(row.PooledGapSec), ratio(row.SpeedupGapped))
	}
	fmt.Fprintf(cfg.Out, "Serial cutoff sweep: one-thread kernel vs its pooled sibling at %d threads, back to back and after a %v idle gap\n", cfg.Threads, cutoffGap)
	t.print(cfg.Out)
	fmt.Fprintf(cfg.Out, "smallest size from which pooled wins in every format: %d stored entries back to back, %d after the gap\n",
		res.DerivedSerialWork, res.DerivedGappedWork)
	return res
}

// winsFrom tracks the smallest size from which a column has won at every
// larger size so far.
type winsFrom struct{ from int }

func (w *winsFrom) note(size int, won bool) {
	if !won {
		w.from = 0
	} else if w.from == 0 {
		w.from = size
	}
}

// size is the tracked size, or math.MaxInt when the largest size lost.
func (w winsFrom) size() int {
	if w.from == 0 {
		return math.MaxInt
	}
	return w.from
}

// derivedCutoff is the smallest size from which every format's column wins,
// or 0 when some format lost at its largest size.
func derivedCutoff(formats []winsFrom) int {
	cutoff := 0
	for _, w := range formats {
		cutoff = max(cutoff, w.size())
	}
	if cutoff == math.MaxInt {
		return 0
	}
	return cutoff
}

// interleavedMedians times the runners in alternating bursts of eight calls,
// each call timed on its own after busy-waiting gap, and returns each
// runner's median call time — the smallest over trials repetitions, like
// MeasureOptions.Trials. Alternating keeps a slow stretch of the machine from
// landing on one runner only; the repetitions drop the stretches that outlast
// a whole trial.
func interleavedMedians(trials, calls int, gap time.Duration, runners []func()) []float64 {
	const burst = 8
	best := make([]float64, len(runners))
	secs := make([][]float64, len(runners))
	for i := range best {
		best[i] = math.Inf(1)
	}
	for t := 0; t < max(trials, 1); t++ {
		for i := range secs {
			secs[i] = secs[i][:0]
		}
		for done := 0; done < calls; done += burst {
			for i, f := range runners {
				f() // re-warm after the previous runner's burst
				for range burst {
					for idle := time.Now(); time.Since(idle) < gap; {
					}
					start := time.Now()
					f()
					secs[i] = append(secs[i], time.Since(start).Seconds())
				}
			}
		}
		for i := range secs {
			sort.Float64s(secs[i])
			best[i] = min(best[i], secs[i][len(secs[i])/2])
		}
	}
	return best
}
