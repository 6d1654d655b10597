package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// SteadyResult compares the two dispatch paths of the execution engine on
// every parallel kernel: Run (per-call goroutine spawn) against RunPooled
// (persistent workers + cached execution plan). This is the perf contract of
// the steady-state SpMV path — the regime a solver sits in after tuning,
// multiplying the same matrix thousands of times.
type SteadyResult struct {
	Threads        int         `json:"threads"`
	Scale          float64     `json:"scale"`
	Rows           []SteadyRow `json:"rows"`
	GeoMeanSpeedup float64     `json:"geomean_speedup"`

	// Cutoff is the serial-vs-pooled size sweep kernels.SerialWork is read
	// off, CutoffGapUs the idle gap of its gapped column. DerivedSerialWork
	// is the smallest swept size from which the pooled path wins back to back
	// in every format — the constant's column — and DerivedGappedWork the
	// same for the first call after the gap: the size below which a dispatch
	// that has to wake its workers loses to the serial body. 0 means the pool
	// never wins that column at this scale.
	Cutoff            []CutoffRow `json:"cutoff_sweep"`
	CutoffGapUs       float64     `json:"cutoff_gap_us"`
	DerivedSerialWork int         `json:"derived_serial_work"`
	DerivedGappedWork int         `json:"derived_gapped_work"`
}

// CutoffRow is one (format, size) point of the cutoff sweep: the kernel the
// tuner binds at one thread against the sibling it binds at Threads, the
// latter on a Partitioned handle so that it runs on the pool whatever the
// size. Both are called back to back and with an idle gap before every call,
// long enough for the workers to have parked.
type CutoffRow struct {
	Format        string  `json:"format"`
	Serial        string  `json:"serial_kernel"`
	Pooled        string  `json:"pooled_kernel"`
	Stored        int     `json:"stored"`
	SerialSec     float64 `json:"serial_sec_per_op"`
	PooledSec     float64 `json:"pooled_sec_per_op"`
	SerialGapSec  float64 `json:"serial_gap_sec_per_op"`
	PooledGapSec  float64 `json:"pooled_gap_sec_per_op"`
	Speedup       float64 `json:"speedup"`
	SpeedupGapped float64 `json:"speedup_gapped"`
}

// SteadyRow is one (workload, kernel) comparison.
type SteadyRow struct {
	Workload     string  `json:"workload"`
	Format       string  `json:"format"`
	Kernel       string  `json:"kernel"`
	NNZ          int     `json:"nnz"`
	SpawnSec     float64 `json:"spawn_sec_per_op"`
	PooledSec    float64 `json:"pooled_sec_per_op"`
	Speedup      float64 `json:"speedup"`
	SpawnGFLOPS  float64 `json:"spawn_gflops"`
	PooledGFLOPS float64 `json:"pooled_gflops"`
}

// steadyWorkloads builds the experiment's matrices, dimension-scaled by
// cfg.Scale: a banded stencil (DIA/ELL territory), a constant-degree graph
// (ELL), a uniform random matrix (CSR), and a power-law-ish road network
// (CSR/COO) — mid-size matrices where per-call goroutine setup is a visible
// fraction of SpMV time.
func steadyWorkloads(cfg Config) []struct {
	name string
	m    *matrix.CSR[float64]
} {
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := func(n int) int { return max(64, int(float64(n)*cfg.Scale)) }
	return []struct {
		name string
		m    *matrix.CSR[float64]
	}{
		{"laplace2d", gen.Laplacian2D5pt[float64](dim(600), dim(600))},
		{"constdeg4", gen.ConstantDegree[float64](dim(50000), 4, rng)},
		{"random30", gen.RandomUniform[float64](dim(20000), dim(20000), 30, rng)},
		{"road", gen.RoadNetwork[float64](dim(80000), rng)},
		// Just past the serial cutoff: each SpMV is tens of microseconds, so
		// this row isolates dispatch overhead (goroutine spawns vs pool
		// wakes) rather than bandwidth.
		{"tiny6", gen.RandomUniform[float64](dim(8000), dim(8000), 6, rng)},
	}
}

// Steady runs the steady-state engine experiment and prints the comparison
// table. Every format the workload converts to (within a fill budget)
// contributes its parallel kernels; each is timed on the spawn path and the
// pooled path with the same warmed plan.
func Steady(cfg Config) *SteadyResult {
	cfg = cfg.withDefaults()
	res := &SteadyResult{Threads: cfg.Threads, Scale: cfg.Scale}

	lib := kernels.NewLibrary[float64]()
	lib.RegisterHYB()
	lib.RegisterBCSR()
	pool := kernels.NewPool[float64](cfg.Threads)
	defer pool.Close()

	formats := []matrix.Format{
		matrix.FormatCSR, matrix.FormatCOO, matrix.FormatDIA,
		matrix.FormatELL, matrix.FormatHYB, matrix.FormatBCSR,
	}

	logSum, logN := 0.0, 0
	for _, w := range steadyWorkloads(cfg) {
		nnz := w.m.NNZ()
		x := make([]float64, w.m.Cols)
		for i := range x {
			x[i] = 1 + float64(i%7)/8
		}
		y := make([]float64, w.m.Rows)
		for _, f := range formats {
			mat, err := kernels.Convert(w.m, f, 8)
			if err != nil {
				continue // fill explosion: the format does not suit this matrix
			}
			for _, k := range lib.ForFormat(f) {
				if k.Strategies&kernels.StratParallel == 0 {
					continue
				}
				// Warm both paths: compute the plan, start the workers.
				k.Run(mat, x, y, cfg.Threads)
				k.RunPooled(mat, x, y, pool)
				spawnSec := autotune.MeasureSecPerOp(func() { k.Run(mat, x, y, cfg.Threads) }, cfg.Measure)
				pooledSec := autotune.MeasureSecPerOp(func() { k.RunPooled(mat, x, y, pool) }, cfg.Measure)
				row := SteadyRow{
					Workload:     w.name,
					Format:       f.String(),
					Kernel:       k.Name,
					NNZ:          nnz,
					SpawnSec:     spawnSec,
					PooledSec:    pooledSec,
					SpawnGFLOPS:  autotune.GFLOPS(kernels.FLOPs(nnz), spawnSec),
					PooledGFLOPS: autotune.GFLOPS(kernels.FLOPs(nnz), pooledSec),
				}
				if pooledSec > 0 {
					row.Speedup = spawnSec / pooledSec
					logSum += math.Log(row.Speedup)
					logN++
				}
				res.Rows = append(res.Rows, row)
			}
		}
	}
	if logN > 0 {
		res.GeoMeanSpeedup = math.Exp(logSum / float64(logN))
	}

	t := &table{header: []string{"Workload", "Format", "Kernel", "NNZ", "Spawn (us)", "Pooled (us)", "Speedup", "Pooled GFLOPS"}}
	for _, row := range res.Rows {
		t.add(row.Workload, row.Format, row.Kernel, fmt.Sprint(row.NNZ),
			fmt.Sprintf("%.1f", row.SpawnSec*1e6), fmt.Sprintf("%.1f", row.PooledSec*1e6),
			fmt.Sprintf("%.2fx", row.Speedup), f2(row.PooledGFLOPS))
	}
	fmt.Fprintf(cfg.Out, "Steady-state SpMV: per-call goroutine spawn vs persistent pool + cached plan (%d threads)\n", cfg.Threads)
	t.print(cfg.Out)
	t.saveTSV(cfg, "steady")
	fmt.Fprintf(cfg.Out, "geometric-mean pooled speedup over spawn: %.2fx across %d kernel/workload pairs\n",
		res.GeoMeanSpeedup, logN)
	cutoffSweep(cfg, lib, pool, res)
	return res
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

// cutoffSweep times serial against pooled from ~1k to ~1M stored entries
// (scaled by cfg.Scale at the top end) per format and derives the smallest
// size from which pooled wins in every format: back to back (SerialWork's
// column) and on the first call after the gap.
func cutoffSweep(cfg Config, lib *kernels.Library[float64], pool *kernels.Pool[float64], res *SteadyResult) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	res.CutoffGapUs = float64(cutoffGap.Microseconds())
	top := int(float64(1<<20) * cfg.Scale)
	for _, c := range cutoffKernels {
		serial := lib.Lookup(c.kernel)
		pooled := serial
		var warmFrom, coldFrom winsFrom
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
				func() { serial.Run(mat, x, y, 1) },
				func() { pooled.RunPooled(forced, x, y, pool) },
			}
			calls := min(2000, max(30, (4<<20)/stored))
			b2b := interleavedMedians(cfg.Measure.Trials, calls, 0, runners)
			gapped := interleavedMedians(cfg.Measure.Trials, calls, cutoffGap, runners)
			row := CutoffRow{
				Format: c.format.String(), Serial: serial.Name, Pooled: pooled.Name, Stored: mat.Stored(),
				SerialSec: b2b[0], PooledSec: b2b[1], SerialGapSec: gapped[0], PooledGapSec: gapped[1],
				Speedup: b2b[0] / b2b[1], SpeedupGapped: gapped[0] / gapped[1],
			}
			res.Cutoff = append(res.Cutoff, row)
			warmFrom.note(stored, row.Speedup > 1)
			coldFrom.note(stored, row.SpeedupGapped > 1)
		}
		res.DerivedSerialWork = max(res.DerivedSerialWork, warmFrom.size())
		res.DerivedGappedWork = max(res.DerivedGappedWork, coldFrom.size())
	}
	if res.DerivedSerialWork == math.MaxInt {
		res.DerivedSerialWork = 0
	}
	if res.DerivedGappedWork == math.MaxInt {
		res.DerivedGappedWork = 0
	}

	us := func(sec float64) string { return fmt.Sprintf("%.1f", sec*1e6) }
	ratio := func(r float64) string { return fmt.Sprintf("%.2fx", r) }
	t := &table{header: []string{"Format", "Stored", "Serial (us)", "Pooled (us)", "Speedup", "Serial gapped (us)", "Pooled gapped (us)", "Speedup gapped"}}
	for _, row := range res.Cutoff {
		t.add(row.Format, fmt.Sprint(row.Stored),
			us(row.SerialSec), us(row.PooledSec), ratio(row.Speedup),
			us(row.SerialGapSec), us(row.PooledGapSec), ratio(row.SpeedupGapped))
	}
	fmt.Fprintf(cfg.Out, "\nSerial cutoff sweep: one-thread kernel vs its pooled sibling at %d threads, back to back and after a %v idle gap\n", cfg.Threads, cutoffGap)
	t.print(cfg.Out)
	t.saveTSV(cfg, "steady-cutoff")
	fmt.Fprintf(cfg.Out, "smallest size from which pooled wins in every format: %d stored entries back to back, %d after the gap\n",
		res.DerivedSerialWork, res.DerivedGappedWork)
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

// SaveJSON writes the result as an indented JSON artifact (the BENCH_steady
// file committed alongside the code).
func (r *SteadyResult) SaveJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
