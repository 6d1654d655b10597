package oracle

import (
	"fmt"
	"math"

	"smat/internal/kernels"
	"smat/internal/matrix"
)

// CheckSpGEMM runs the differential suite for the row-blocked Galerkin
// product backing AMG hierarchy setup. Two properties, on the spec's matrix
// A (with R = P = Aᵀ so shapes compose and the structure is adversarial in
// both orientations):
//
//  1. GalerkinRAP is bit-for-bit the same product however its rows are
//     dispatched: one chunk without a pool, four chunks without a pool (run
//     on the caller in chunk order), and pooled at every thread count in
//     opt.Threads. Chunking must not change a single bit of any row.
//  2. GalerkinRAP(Aᵀ, A, Aᵀ) matches the float64 two-pass triple product
//     within the per-entry rounding bound (its association differs by
//     design, so this is a tolerance check, with the bound built from the
//     exact per-entry term counts and absolute-value sums).
func CheckSpGEMM[T matrix.Float](s *Spec, opt Options) error {
	opt = opt.withDefaults()
	a, err := BuildCSR[T](s)
	if err != nil {
		return err
	}
	b := a.Transpose()

	serial := kernels.GalerkinRAP(b, a, b, nil, 1)
	if got := kernels.GalerkinRAP(b, a, b, nil, 4); !serial.Equal(got) {
		return fmt.Errorf("oracle: %s: galerkin-rap in four caller-run chunks differs from one chunk", s.Name)
	}
	for _, th := range opt.Threads {
		pool := kernels.NewPool[T](th)
		got := kernels.GalerkinRAP(b, a, b, pool, th)
		pool.Close()
		if !serial.Equal(got) {
			return fmt.Errorf("oracle: %s: galerkin-rap at %d threads: pooled result differs from serial", s.Name, th)
		}
	}
	return checkRAPValues(s.Name, b, a, b, serial, opt.TolScale)
}

// checkRAPValues compares the fused triple product against the float64
// two-pass reference over the union of both patterns. The per-entry bound
// is rowTolerance with the entry's exact contribution count (computed on
// indicator matrices, where no cancellation is possible) and its
// absolute-value sum (the triple product of |R|, |A|, |P|).
func checkRAPValues[T matrix.Float](name string, r, a, p, got *matrix.CSR[T], tolScale float64) error {
	r64, rAbs, rOne := splitFloat64(r)
	a64, aAbs, aOne := splitFloat64(a)
	p64, pAbs, pOne := splitFloat64(p)
	want := matrix.TripleProduct(r64, a64, p64)
	absSum := matrix.TripleProduct(rAbs, aAbs, pAbs)
	terms := matrix.TripleProduct(rOne, aOne, pOne)
	eps := epsOf[T]()
	for i := 0; i < want.Rows; i++ {
		// Walk the union of the reference and fused patterns: either side
		// may drop an entry the other keeps (exact cancellation happens on
		// one association but not the other), and a dropped entry is a
		// zero that still has to satisfy the bound.
		gi, giEnd := got.RowPtr[i], got.RowPtr[i+1]
		wi, wiEnd := want.RowPtr[i], want.RowPtr[i+1]
		// absSum and terms share a pattern that covers the union (they are
		// built from all-positive values, so nothing cancels out of them);
		// ti walks it in lockstep with the ascending union columns.
		ti, tiEnd := terms.RowPtr[i], terms.RowPtr[i+1]
		for gi < giEnd || wi < wiEnd {
			var c int
			var gv, wv float64
			switch {
			case wi >= wiEnd || (gi < giEnd && got.ColIdx[gi] < want.ColIdx[wi]):
				c, gv = got.ColIdx[gi], float64(got.Vals[gi])
				gi++
			case gi >= giEnd || want.ColIdx[wi] < got.ColIdx[gi]:
				c, wv = want.ColIdx[wi], want.Vals[wi]
				wi++
			default:
				c, gv, wv = got.ColIdx[gi], float64(got.Vals[gi]), want.Vals[wi]
				gi++
				wi++
			}
			for ti < tiEnd && terms.ColIdx[ti] < c {
				ti++
			}
			var deg int
			var as float64
			if ti < tiEnd && terms.ColIdx[ti] == c {
				deg = int(terms.Vals[ti])
				as = absSum.Vals[ti]
			}
			tol := tolScale * rowTolerance(eps, deg, as, wv)
			if d := math.Abs(gv - wv); d > tol {
				return fmt.Errorf("oracle: %s: galerkin-rap entry (%d,%d): fused %g vs reference %g (|Δ|=%g > tol %g, %d terms)",
					name, i, c, gv, wv, d, tol, deg)
			}
		}
	}
	return nil
}

// splitFloat64 returns float64, absolute-value, and indicator (all-ones)
// copies of m: the value, error-bound, and term-count inputs of the
// reference triple product.
func splitFloat64[T matrix.Float](m *matrix.CSR[T]) (v, abs, one *matrix.CSR[float64]) {
	v = &matrix.CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr,
		ColIdx: m.ColIdx, Vals: make([]float64, len(m.Vals))}
	abs = &matrix.CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr,
		ColIdx: m.ColIdx, Vals: make([]float64, len(m.Vals))}
	one = &matrix.CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr,
		ColIdx: m.ColIdx, Vals: make([]float64, len(m.Vals))}
	for i, x := range m.Vals {
		f := float64(x)
		v.Vals[i] = f
		abs.Vals[i] = math.Abs(f)
		one.Vals[i] = 1
	}
	return v, abs, one
}
