package kernels

import (
	"fmt"
	"time"

	"smat/internal/matrix"
)

// Params describes one point in the kernel-template parameter space (the
// AlphaSparse-lite design in DESIGN §12): the knobs of a table row's loop
// body and of the conversion that feeds it. A zero Params means "the built-in
// defaults" everywhere, so the struct is carried through decisions, the
// cache, and the model without a presence flag.
type Params struct {
	// Unroll is the inner-loop unroll depth (independent partial
	// accumulators) of the row/slot/diagonal product: one of UnrollDepths.
	// Zero means the kernel's own fixed depth.
	Unroll int `json:"unroll,omitempty"`
	// HybCut is the ELL→HYB width-cut padding-allowance percentile handed to
	// matrix.HybSplitWidth at conversion time. Zero means the default 0.3.
	HybCut float64 `json:"hyb_cut,omitempty"`
}

// IsZero reports whether every knob is at its default.
func (p Params) IsZero() bool { return p == Params{} }

// Suffix renders the instance-distinguishing name suffix, e.g. "_u8" for an
// unroll depth — empty at the default depth. The conversion-only HybCut never
// names a kernel instance and contributes nothing.
func (p Params) Suffix() string {
	if p.Unroll > 0 {
		return fmt.Sprintf("_u%d", p.Unroll)
	}
	return ""
}

// String renders the non-default knobs for logs and bench artifacts.
func (p Params) String() string {
	if p.IsZero() {
		return "default"
	}
	s := p.Suffix()
	if p.HybCut > 0 {
		s += fmt.Sprintf("_h%g", p.HybCut)
	}
	if len(s) > 0 && s[0] == '_' {
		s = s[1:]
	}
	return s
}

// The searched parameter space. The scoreboard walk measures these points per
// training matrix, pruned by the feature-guided rules in
// internal/autotune/scoreboard.go.
var (
	// UnrollDepths is the searched inner-loop unroll space. Depths 1 and 4
	// are the zero-Params bodies (basic and *_unroll4 kernels); 2 and 8 are
	// table rows with Params.Unroll set.
	UnrollDepths = []int{1, 2, 4, 8}
	// HybCuts is the searched ELL→HYB width-cut padding-allowance space.
	HybCuts = []float64{0.1, 0.3, 0.5}
)

// ConvertFrom is the one conversion site. The conversion-time knob of p
// applies — the HYB width-cut percentile; zero selects the default 0.3 cut.
// l is matrix.Scan(m)'s Layout
// when the caller holds it — the tuner does, from feature extraction or from
// its structure index — and nil otherwise: DIA takes its diagonals and ELL its
// width from the record instead of reading the structure again, and their fill
// guards reject from it without touching the matrix. A record that dropped
// its diagonals (a remembered one may) is as good as none to DIA, which scans;
// a record of m's shape that is not m's fails with
// matrix.ErrStructureMismatch. The COO
// representation is a view sharing m's ColIdx and Vals (matrix.CSR.ToCOO), as
// the CSR one shares all of m.
func ConvertFrom[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64, p Params) (*Mat[T], error) {
	return convert(m, l, f, maxFill, p, matrix.Split{})
}

// convert is ConvertFrom with the DIA, ELL and COO conversions run in the
// row chunks of sp; the other formats ignore it.
func convert[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64, p Params, sp matrix.Split) (*Mat[T], error) {
	switch f {
	case matrix.FormatCSR:
		return &Mat[T]{Format: f, CSR: m}, nil
	case matrix.FormatCOO:
		return &Mat[T]{Format: f, COO: m.ToCOOSplit(sp)}, nil
	case matrix.FormatDIA:
		if l == nil || l.DiagOffsets == nil {
			l = &matrix.Scan(m).Layout
		}
		d, err := m.ToDIAFrom(l, maxFill, sp)
		if err != nil {
			return nil, err
		}
		return &Mat[T]{Format: f, DIA: d}, nil
	case matrix.FormatELL:
		if l == nil {
			l = &matrix.Layout{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ(), MaxDeg: m.MaxRowDegree()}
		}
		e, err := m.ToELLFrom(l, maxFill, sp)
		if err != nil {
			return nil, err
		}
		return &Mat[T]{Format: f, ELL: e}, nil
	case matrix.FormatHYB:
		width := -1
		if p.HybCut > 0 {
			width = matrix.HybSplitWidth(m, p.HybCut)
		}
		return &Mat[T]{Format: f, HYB: m.ToHYB(width)}, nil
	}
	return nil, fmt.Errorf("kernels: unknown format %v", f)
}

// ConvertTimedParams is ConvertFrom with the stopwatch attached: it reports
// how long the conversion took and how many slots it wrote. CSR "conversion"
// wraps the input in place and reports zero seconds — CSR is the zero-cost
// incumbent of the amortisation model. Decisions that carry tuned Params
// must materialise through it so cache hits rebuild the exact representation
// the leader measured. From ConvertWork nonzeros up, on a pool of more than
// one thread, the DIA, ELL and COO conversions run in nnz-balanced row chunks
// on the pool's workers (matrix.Split: the same bits as one chunk); a nil
// pool converts on the caller.
func ConvertTimedParams[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64, p Params, pool *Pool[T]) (*Mat[T], ConvertTiming, error) {
	if f == matrix.FormatCSR {
		return &Mat[T]{Format: f, CSR: m}, ConvertTiming{Format: f, Stored: m.Stored()}, nil
	}
	start := time.Now()
	var sp matrix.Split
	if pool != nil && pool.Threads() > 1 && m.NNZ() >= ConvertWork {
		sp = matrix.Split{Bounds: nnzBalancedRowBounds(m.RowPtr, pool.Threads()), Run: pool.RunChunksInline}
	}
	out, err := convert(m, l, f, maxFill, p, sp)
	sec := time.Since(start).Seconds()
	if err != nil {
		return nil, ConvertTiming{Format: f, Sec: sec}, err
	}
	return out, ConvertTiming{Format: f, Sec: sec, Stored: out.Stored()}, nil
}
