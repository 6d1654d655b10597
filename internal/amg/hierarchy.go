package amg

import (
	"fmt"

	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/solve"
)

// SpMV is the pluggable sparse matrix-vector product every solve-phase
// multiply goes through. SMAT's tuned operator satisfies it, as does the
// plain CSR fallback — swapping the factory is all it takes to put SMAT
// inside AMG, mirroring how the paper replaces Hypre's SpMV calls.
type SpMV[T matrix.Float] interface {
	MulVec(x, y []T)
}

// OperatorFactory turns a CSR matrix into the SpMV operator the solve phase
// will use for it.
type OperatorFactory[T matrix.Float] func(m *matrix.CSR[T]) (SpMV[T], error)

// The set-up and cycle parameters: the strength threshold, the depth bound,
// the dimension at which a level is solved directly, the pre- and
// post-smoothing sweeps, the weighted-Jacobi damping and the interpolation
// truncation (Hypre's Pmax). Theta, the depth bound and Pmax are Hypre
// BoomerAMG's defaults.
const (
	theta      = 0.25
	maxLevels  = 25
	coarseSize = 64
	nu1, nu2   = 1, 1
	omega      = float64(2.0 / 3.0)
	pMax       = 4
)

// Options configures SetupPooled.
type Options struct {
	// Coarsening selects RugeStueben or CLJP.
	Coarsening Coarsening
	// Seed feeds CLJP's random weights.
	Seed int64
}

// Level is one grid of the hierarchy: the operator A, the transfer operators
// P (prolongation to this level) and R (restriction from this level), and
// the bound SpMV implementations.
type Level[T matrix.Float] struct {
	A    *matrix.CSR[T]
	P    *matrix.CSR[T] // fine(this)×coarse(next); nil on the coarsest level
	R    *matrix.CSR[T] // transpose of P
	Diag []T            // diagonal of A (Jacobi)

	aOp, pOp, rOp SpMV[T]

	// vec runs this level's vector phases (Jacobi update, residual,
	// correction) on aOp's worker pool when aOp lends one and the level is
	// large enough to split; bindOps keeps it pointed at the current aOp.
	vec solve.Vec[T]

	// Workspaces sized to this level.
	x, b, tmp []T
}

// bindOps installs the level's operators (p and r are nil on the coarsest
// level) and rebinds the vector backend to the new A-operator.
func (lvl *Level[T]) bindOps(a, p, r SpMV[T]) {
	lvl.aOp, lvl.pOp, lvl.rOp = a, p, r
	lvl.vec.Bind(a, lvl.A.Rows)
}

// Hierarchy is a fully set-up AMG preconditioner/solver.
type Hierarchy[T matrix.Float] struct {
	Levels []*Level[T]
	lu     *denseLU[T]
	cgws   solve.CGScratch[T] // reusable PCG workspace: SolvePCG allocates only on first use
}

// csrOp is the default operator: basic CSR SpMV.
type csrOp[T matrix.Float] struct{ m *matrix.CSR[T] }

func (o csrOp[T]) MulVec(x, y []T) {
	for i := 0; i < o.m.Rows; i++ {
		var sum T
		for jj := o.m.RowPtr[i]; jj < o.m.RowPtr[i+1]; jj++ {
			sum += o.m.Vals[jj] * x[o.m.ColIdx[jj]]
		}
		y[i] = sum
	}
}

// SetupPooled builds the multigrid hierarchy from a square sparse operator:
// strength graph → coarsening → direct interpolation → Galerkin triple
// product per level, until the coarse-size or level limit. Operators default
// to plain CSR; call Bind to swap in tuned SpMVs. The Galerkin coarse-grid
// products — the set-up's dominant cost — run as row-blocked SpGEMM chunks
// on the given kernel worker pool (kernels.GalerkinRAP); a nil pool runs the
// same product on the caller, with the same bits. Sharing the tuner's pool
// (Tuner.Pool()) keeps setup and solve on one set of workers.
func SetupPooled[T matrix.Float](a *matrix.CSR[T], opts Options, pool *kernels.Pool[T]) (*Hierarchy[T], error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("amg: operator is %dx%d, want square", a.Rows, a.Cols)
	}
	h := &Hierarchy[T]{}
	cur := a
	for len(h.Levels) < maxLevels-1 && cur.Rows > coarseSize {
		g := buildStrength(cur, theta)
		var split []int8
		if opts.Coarsening == CLJP {
			split = coarsenCLJP(g, opts.Seed+int64(len(h.Levels)))
		} else {
			split = coarsenRS(g)
		}
		enforceInterpolatable(g, split)
		p := buildInterpolation(cur, g, split)
		if p.Cols == 0 || p.Cols >= cur.Rows {
			break // coarsening stalled
		}
		r := p.Transpose()
		lvl := &Level[T]{A: cur, P: p, R: r, Diag: cur.Diagonal()}
		h.Levels = append(h.Levels, lvl)
		cur = kernels.GalerkinRAP(r, cur, p, pool, 0)
	}
	h.Levels = append(h.Levels, &Level[T]{A: cur, Diag: cur.Diagonal()})
	for _, lvl := range h.Levels {
		lvl.x = make([]T, lvl.A.Rows)
		lvl.b = make([]T, lvl.A.Rows)
		lvl.tmp = make([]T, lvl.A.Rows)
		if lvl.P == nil {
			lvl.bindOps(csrOp[T]{lvl.A}, nil, nil)
		} else {
			lvl.bindOps(csrOp[T]{lvl.A}, csrOp[T]{lvl.P}, csrOp[T]{lvl.R})
		}
	}
	var err error
	h.lu, err = factorDense(cur)
	if err != nil {
		return nil, fmt.Errorf("amg: coarse factorisation: %w", err)
	}
	return h, nil
}

// Bind replaces every level's SpMV operators (A, P and R products) with
// operators produced by the factory — the SMAT integration point.
func (h *Hierarchy[T]) Bind(factory OperatorFactory[T]) error {
	for li, lvl := range h.Levels {
		a, err := factory(lvl.A)
		if err != nil {
			return fmt.Errorf("amg: bind level %d A: %w", li, err)
		}
		var p, r SpMV[T]
		if lvl.P != nil {
			if p, err = factory(lvl.P); err != nil {
				return fmt.Errorf("amg: bind level %d P: %w", li, err)
			}
			if r, err = factory(lvl.R); err != nil {
				return fmt.Errorf("amg: bind level %d R: %w", li, err)
			}
		}
		lvl.bindOps(a, p, r)
	}
	return nil
}

// OperatorComplexity returns Σ nnz(A_l) / nnz(A_0), the standard AMG
// quality metric.
func (h *Hierarchy[T]) OperatorComplexity() float64 {
	total := 0
	for _, lvl := range h.Levels {
		total += lvl.A.NNZ()
	}
	if h.Levels[0].A.NNZ() == 0 {
		return 0
	}
	return float64(total) / float64(h.Levels[0].A.NNZ())
}
