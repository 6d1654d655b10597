// Package bench regenerates the paper's evaluation: every table and figure
// has a function here that builds the workload, runs the measurement, and
// prints rows in the paper's shape. cmd/smat-bench drives it from the
// command line; the root-level benchmarks drive the same code under
// testing.B.
package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"smat/internal/autotune"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// Config is shared by all experiments.
type Config struct {
	// Scale shrinks every workload's matrix dimensions, (0, 1].
	Scale float64
	// Threads is "platform A" (default GOMAXPROCS); ThreadsB is "platform
	// B", the second architecture configuration (default half of A, min 1).
	Threads, ThreadsB int
	// Model drives SMAT decisions (required; cmd/smat-bench loads -model, or
	// the built-in model.json without it).
	Model *autotune.Model
	// Baseline, when set, is a second model the selection experiment
	// evaluates beside Model; Database, when set, the feature database its
	// k-fold accuracy is computed on.
	Baseline *autotune.Model
	Database *autotune.Database
	// Measure controls timing windows.
	Measure autotune.MeasureOptions
	// Stride samples every k-th corpus entry in corpus-wide experiments
	// (1 = every entry).
	Stride int
	// Seed feeds workload generators.
	Seed int64
	// Out receives the printed experiment (default: discard).
	Out io.Writer
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 || c.Scale > 1 {
		c.Scale = 1
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.ThreadsB <= 0 {
		c.ThreadsB = max(1, c.Threads/2)
	}
	if c.Stride < 1 {
		c.Stride = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// bestOfSec runs f trials times (at least once) and returns the fastest
// wall-clock seconds: the harness's one timer for work that is not repeated
// inside a window (a solve, a tune, a tune plus k products). Work repeated
// inside a window goes through autotune.MeasureSecPerOp, and the steady
// cutoff's per-call medians through interleavedMedians. A forced GC before
// every trial keeps garbage left by earlier cases (the Galerkin setups churn
// through hundreds of MB) from being collected inside a later timing window.
func bestOfSec(trials int, f func()) float64 {
	best := math.Inf(1)
	for t := 0; t < max(trials, 1); t++ {
		runtime.GC()
		start := time.Now()
		f()
		best = min(best, time.Since(start).Seconds())
	}
	return best
}

// csrUnitSec times one basic single-thread CSR SpMV on m: the unit of the
// paper's Table 3 overhead. The tuner measures it only where it spends one
// (Decision.CSRSpMVSec), so the experiments that report overhead on every
// path time it themselves.
func csrUnitSec(m *matrix.CSR[float64], opts autotune.MeasureOptions) float64 {
	basic := kernels.NewLibrary[float64]().Basic(matrix.FormatCSR)
	mat := &kernels.Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.Rows)
	return autotune.MeasureSecPerOp(func() { basic.Run(mat, x, y, 1) }, opts)
}

// overheadSpMV is a decision's cost in multiples of unitSec, the matrix's
// csrUnitSec; 0 for a unit too small to time (an empty matrix).
func overheadSpMV(dec *autotune.Decision, unitSec float64) float64 {
	if unitSec <= 0 {
		return 0
	}
	return dec.TuneSec() / unitSec
}

// castCSR converts an assembled float64 matrix to float32 for the
// single-precision axis of Figures 9 and 10.
func castCSR(m *matrix.CSR[float64]) *matrix.CSR[float32] {
	out := &matrix.CSR[float32]{
		Rows:   m.Rows,
		Cols:   m.Cols,
		RowPtr: append([]int(nil), m.RowPtr...),
		ColIdx: append([]int(nil), m.ColIdx...),
		Vals:   make([]float32, len(m.Vals)),
	}
	for i, v := range m.Vals {
		out.Vals[i] = float32(v)
	}
	return out
}

// table is a minimal fixed-width table printer for paper-style output.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) print(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
