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
	// BlockR, BlockC are the BCSR register-block shape used at conversion
	// time; the block-specialised kernels dispatch on the stored shape. Zero
	// means matrix.BestBlockSize picks.
	BlockR int `json:"block_r,omitempty"`
	BlockC int `json:"block_c,omitempty"`
	// HybCut is the ELL→HYB width-cut padding-allowance percentile handed to
	// matrix.HybSplitWidth at conversion time. Zero means the default 0.3.
	HybCut float64 `json:"hyb_cut,omitempty"`
}

// IsZero reports whether every knob is at its default.
func (p Params) IsZero() bool { return p == Params{} }

// Suffix renders the instance-distinguishing name suffix, e.g. "_2x4" for a
// block shape, "_u8" for an unroll depth — empty for the zero Params. The
// conversion-only HybCut never names a kernel instance and contributes
// nothing.
func (p Params) Suffix() string {
	s := ""
	if p.BlockR > 0 && p.BlockC > 0 {
		s += fmt.Sprintf("_%dx%d", p.BlockR, p.BlockC)
	}
	if p.Unroll > 0 {
		s += fmt.Sprintf("_u%d", p.Unroll)
	}
	return s
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
	// BCSRShapes is the searched register-block shape space (r×c).
	BCSRShapes = [][2]int{{2, 2}, {2, 4}, {4, 2}, {4, 4}, {8, 2}}
	// HybCuts is the searched ELL→HYB width-cut padding-allowance space.
	HybCuts = []float64{0.1, 0.3, 0.5}
)

// ConvertFrom is the one conversion site. The conversion-time knobs of p
// apply — the BCSR block shape and the HYB width-cut percentile; zero values
// select the defaults (auto block shape, 0.3 cut). l is matrix.Scan(m)'s Layout
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
	switch f {
	case matrix.FormatCSR:
		return &Mat[T]{Format: f, CSR: m}, nil
	case matrix.FormatCOO:
		return &Mat[T]{Format: f, COO: m.ToCOO()}, nil
	case matrix.FormatDIA:
		if l == nil || l.DiagOffsets == nil {
			l = &matrix.Scan(m).Layout
		}
		d, err := m.ToDIAFrom(l, maxFill)
		if err != nil {
			return nil, err
		}
		return &Mat[T]{Format: f, DIA: d}, nil
	case matrix.FormatELL:
		var e *matrix.ELL[T]
		var err error
		if l != nil {
			e, err = m.ToELLFrom(l, maxFill)
		} else {
			e, err = m.ToELL(maxFill)
		}
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
	case matrix.FormatBCSR:
		b, err := m.ToBCSR(p.BlockR, p.BlockC, maxFill)
		if err != nil {
			return nil, err
		}
		return &Mat[T]{Format: f, BCSR: b}, nil
	}
	return nil, fmt.Errorf("kernels: unknown format %v", f)
}

// ConvertTimedParams is ConvertFrom with the stopwatch attached: it reports
// how long the conversion took and how many slots it wrote. CSR "conversion"
// wraps the input in place and reports zero seconds — CSR is the zero-cost
// incumbent of the amortisation model. Decisions that carry tuned Params
// must materialise through it so cache hits rebuild the exact representation
// the leader measured.
func ConvertTimedParams[T matrix.Float](m *matrix.CSR[T], l *matrix.Layout, f matrix.Format, maxFill float64, p Params) (*Mat[T], ConvertTiming, error) {
	if f == matrix.FormatCSR {
		return &Mat[T]{Format: f, CSR: m}, ConvertTiming{Format: f, Stored: m.Stored()}, nil
	}
	start := time.Now()
	out, err := ConvertFrom(m, l, f, maxFill, p)
	sec := time.Since(start).Seconds()
	if err != nil {
		return nil, ConvertTiming{Format: f, Sec: sec}, err
	}
	return out, ConvertTiming{Format: f, Sec: sec, Stored: out.Stored()}, nil
}
