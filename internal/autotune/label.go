package autotune

import (
	"runtime"

	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// DefaultMaxFill bounds DIA/ELL zero-fill during labeling and fallback
// measurement: conversions that would store more than this multiple of NNZ
// are skipped as infeasible rather than measured.
const DefaultMaxFill = 20.0

// Label is the measured ground truth for one matrix at one thread count: per
// format, the GFLOPS of the kernel it was timed with, and the winner.
type Label struct {
	Best    matrix.Format
	GFLOPS  map[matrix.Format]float64
	Kernels map[matrix.Format]string
	Threads int
}

// Labeler measures matrices to produce training labels the way a tuner runs
// them: each format converted by the tuner's build stage and timed on the
// kernel the tuner binds for it, on the tuner's worker pool.
type Labeler struct {
	t *Tuner[float64]
	// class is what the labeler's tuner runs: its kernels name what the
	// tuner binds per format, the class a model trained on its labels ships.
	class   *ModelClass
	measure MeasureOptions
}

// NewLabeler builds a labeler timing at threads (≤ 0: GOMAXPROCS; capped to
// it) with the kernel chosen per format (choice may be nil: every format then
// takes its default kernel, see resolveKernel).
func NewLabeler(choice KernelChoice, threads int, measure MeasureOptions) *Labeler {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	class := ModelClass{
		Threads: threads,
		Kernels: make(map[string]string, len(choice)),
		Ruleset: &mining.Ruleset{AttrNames: features.AttributeNames, ClassNames: classNames(), Default: int(matrix.FormatCSR)},
	}
	for f, name := range choice {
		class.Kernels[f.String()] = name
	}
	t := New[float64](NewModel(DefaultConfidenceThreshold, DefaultMaxFill, class), Config{Threads: threads, CacheSize: -1})
	// Name what the tuner bound: a choice naming no usable kernel resolves to
	// the format's default.
	clear(t.class.Kernels)
	for f, k := range t.bound {
		if k != nil {
			t.class.Kernels[f.String()] = k.Name
		}
	}
	return &Labeler{t: t, class: t.class, measure: measure.withDefaults()}
}

// Close stops the labeler's worker pool.
func (l *Labeler) Close() { l.t.Close() }

// Label measures the matrix in every feasible format and returns the winner
// by the execute-and-measure verdict (pickMeasured): the fastest format when
// it beats CSR, which costs no conversion, by the fallback's margin, else
// CSR. The exhaustive measurement is the paper's off-line ground truth (and
// the cost SMAT's learning model exists to avoid at runtime).
func (l *Labeler) Label(m *matrix.CSR[float64]) Label {
	t := l.t
	lbl := Label{Best: matrix.FormatCSR, GFLOPS: map[matrix.Format]float64{}, Kernels: map[matrix.Format]string{}, Threads: t.threads}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%5)/5
	}
	y := make([]float64, m.Rows)
	lay := &matrix.Scan(m).Layout
	flops := kernels.FLOPs(m.NNZ())
	// CSR first: pickMeasured's incumbent.
	formats := []matrix.Format{matrix.FormatCSR}
	var secs []float64
	for _, f := range matrix.Formats {
		if f != matrix.FormatCSR {
			formats = append(formats, f)
		}
	}
	for _, f := range formats {
		e, _, err := t.build(m, lay, f, DefaultMaxFill)
		if err != nil {
			continue
		}
		sec := MeasureSecPerOp(func() { e.kernel.RunPooled(e.mat, x, y, t.pool) }, l.measure)
		lbl.GFLOPS[f], lbl.Kernels[f] = GFLOPS(flops, sec), e.kernel.Name
		formats[len(secs)] = f
		secs = append(secs, sec)
	}
	lbl.Best = formats[pickMeasured(secs)]
	return lbl
}
