package autotune

import (
	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// DefaultMaxFill bounds DIA/ELL zero-fill during labeling and fallback
// measurement: conversions that would store more than this multiple of NNZ
// are skipped as infeasible rather than measured.
const DefaultMaxFill = 20.0

// Label is the measured ground truth for one matrix: per-format GFLOPS
// (using each format's chosen kernel) and the winner.
type Label struct {
	Best   matrix.Format
	GFLOPS map[matrix.Format]float64
}

// Labeler measures matrices to produce training labels.
type Labeler struct {
	lib     *kernels.Library[float64]
	choice  KernelChoice
	threads int
	measure MeasureOptions
	maxFill float64
}

// NewLabeler builds a labeler that evaluates each format with the kernel the
// scoreboard search chose (choice may be nil: each format's best is then
// taken as its basic implementation).
func NewLabeler(choice KernelChoice, threads int, measure MeasureOptions) *Labeler {
	return &Labeler{
		lib:     kernels.NewLibrary[float64](),
		choice:  choice,
		threads: threads,
		measure: measure.withDefaults(),
		maxFill: DefaultMaxFill,
	}
}

// Label measures the matrix in every feasible format and returns the
// winner. The exhaustive measurement is the paper's off-line ground truth
// (and the cost SMAT's learning model exists to avoid at runtime).
func (l *Labeler) Label(m *matrix.CSR[float64]) Label {
	lbl := Label{Best: matrix.FormatCSR, GFLOPS: map[matrix.Format]float64{}}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1 + float64(i%5)/5
	}
	y := make([]float64, m.Rows)
	flops := kernels.FLOPs(m.NNZ())
	best := 0.0
	for _, f := range matrix.Formats {
		mat, err := kernels.Convert(m, f, l.maxFill)
		if err != nil {
			continue
		}
		k := resolveKernel(l.lib, l.choice[f], f)
		sec := MeasureSecPerOp(func() { k.Run(mat, x, y, l.threads) }, l.measure)
		g := GFLOPS(flops, sec)
		lbl.GFLOPS[f] = g
		if g > best {
			best = g
			lbl.Best = f
		}
	}
	return lbl
}

// LabelParams is Label with the per-matrix parameter walk: each format's
// ground truth is the best over its whole tunable space (kernel instances ×
// conversion parameters, feature-pruned), and the winning parameters are
// returned per format so the database can record them. ft is the matrix's
// already-extracted feature row; formats whose walk was fully pruned or
// infeasible are absent from both maps.
func (l *Labeler) LabelParams(m *matrix.CSR[float64], ft *features.Features) (Label, map[matrix.Format]kernels.Params) {
	lbl := Label{Best: matrix.FormatCSR, GFLOPS: map[matrix.Format]float64{}}
	params := map[matrix.Format]kernels.Params{}
	best := 0.0
	for _, f := range matrix.Formats {
		res := SearchMatrixParams(l.lib, m, ft, f, l.threads, l.measure)
		if res.Kernel == "" {
			continue
		}
		lbl.GFLOPS[f] = res.GFLOPS
		if !res.Params.IsZero() {
			params[f] = res.Params
		}
		if res.GFLOPS > best {
			best = res.GFLOPS
			lbl.Best = f
		}
	}
	return lbl, params
}
