// Package refblas is the comparison baseline standing in for the Intel MKL
// sparse library in the paper's Figure 10: a competent, fixed-format sparse
// BLAS with one entry point per storage format (mirroring MKL's
// mkl_xcsrgemv / mkl_xcoogemv / mkl_xdiagemv family) and no input-adaptive
// tuning. Each entry point uses a straightforward parallel kernel — the
// point of the comparison is adaptivity, not kernel quality.
package refblas

import (
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// Lib is a fixed-format reference library instance for one element type. Its
// entry points run on a worker pool of its own, the way MKL runs on a
// persistent thread team; an abandoned Lib's pool is reclaimed by the pool's
// finalizer. Concurrent calls are safe: a call that finds the pool busy runs
// on its caller.
type Lib[T matrix.Float] struct {
	lib  *kernels.Library[T]
	pool *kernels.Pool[T]
}

// New builds the reference library. threads ≤ 0 selects GOMAXPROCS.
func New[T matrix.Float](threads int) *Lib[T] {
	return &Lib[T]{lib: kernels.NewLibrary[T](), pool: kernels.NewPool[T](threads)}
}

// CSRGeMV computes y = A·x on a CSR matrix (mkl_xcsrgemv analogue).
func (l *Lib[T]) CSRGeMV(m *matrix.CSR[T], x, y []T) {
	mat := &kernels.Mat[T]{Format: matrix.FormatCSR, CSR: m}
	l.lib.Lookup("csr_parallel").RunPooled(mat, x, y, l.pool)
}

// COOGeMV computes y = A·x on a COO matrix (mkl_xcoogemv analogue).
func (l *Lib[T]) COOGeMV(m *matrix.COO[T], x, y []T) {
	mat := &kernels.Mat[T]{Format: matrix.FormatCOO, COO: m}
	l.lib.Lookup("coo_parallel").RunPooled(mat, x, y, l.pool)
}

// DIAGeMV computes y = A·x on a DIA matrix (mkl_xdiagemv analogue).
func (l *Lib[T]) DIAGeMV(m *matrix.DIA[T], x, y []T) {
	mat := &kernels.Mat[T]{Format: matrix.FormatDIA, DIA: m}
	l.lib.Lookup("dia_parallel").RunPooled(mat, x, y, l.pool)
}

// ELLGeMV computes y = A·x on an ELL matrix.
func (l *Lib[T]) ELLGeMV(m *matrix.ELL[T], x, y []T) {
	mat := &kernels.Mat[T]{Format: matrix.FormatELL, ELL: m}
	l.lib.Lookup("ell_parallel").RunPooled(mat, x, y, l.pool)
}

// BestFixedFormat measures the library's per-format entry points on a matrix
// the way the paper reports "MKL performance ... the maximum performance
// number of DIA, CSR, and COO SpMV functions": the caller (who, unlike SMAT,
// must know their matrix) would pick the best fixed format by hand. It
// returns GFLOPS per feasible format and the best format. measure is a
// seconds-per-op measurement callback so the caller controls timing policy.
func (l *Lib[T]) BestFixedFormat(m *matrix.CSR[T], maxFill float64,
	measure func(op func()) float64) (best matrix.Format, gflops map[matrix.Format]float64) {
	x := make([]T, m.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]T, m.Rows)
	flops := float64(kernels.FLOPs(m.NNZ()))
	gflops = map[matrix.Format]float64{}
	bestG := -1.0
	best = matrix.FormatCSR
	for _, f := range []matrix.Format{matrix.FormatCSR, matrix.FormatCOO, matrix.FormatDIA} {
		mat, err := kernels.Convert(m, f, maxFill)
		if err != nil {
			continue
		}
		var run func()
		switch f {
		case matrix.FormatCSR:
			run = func() { l.CSRGeMV(mat.CSR, x, y) }
		case matrix.FormatCOO:
			run = func() { l.COOGeMV(mat.COO, x, y) }
		case matrix.FormatDIA:
			run = func() { l.DIAGeMV(mat.DIA, x, y) }
		}
		sec := measure(run)
		if sec <= 0 {
			continue
		}
		g := flops / sec / 1e9
		gflops[f] = g
		if g > bestG {
			bestG, best = g, f
		}
	}
	return best, gflops
}
