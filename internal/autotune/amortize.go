// Amortization-aware tuning: conversion cost as a first-class input to the
// format decision.
//
// The paper's runtime procedure picks the asymptotically best format — the
// right answer for a matrix that lives forever. A matrix that will see only
// k more SpMVs must instead win the payoff inequality
//
//	convertSec + k·chosenSec ≤ k·incumbentSec
//
// against tuned CSR, the incumbent that costs nothing to convert to (the
// input already is CSR). This file implements that comparison (BreakEven)
// and the per-call options carrying k.
package autotune

import (
	"fmt"
	"math"
	"slices"

	"smat/internal/matrix"
)

// TuneOptions carries the per-call tuning intent of Tuner.TuneOpts. The zero
// value reproduces Tune's asymptotic behaviour exactly.
type TuneOptions struct {
	// Iterations is the caller's estimate of how many SpMVs the operator
	// will run (k in the payoff model). 0 means no estimate: tune
	// asymptotically. Negative values are rejected. With an estimate, a
	// non-CSR winner is only converted to when k reaches its break-even
	// point, and then before TuneOpts returns.
	Iterations int

	// FormatHint forces the operator's format when HasFormatHint is set,
	// bypassing both the model and the decision cache (a forced format must
	// not poison cached decisions for structurally identical matrices tuned
	// without the hint). The conversion always runs inline, so the hint
	// doubles as an eager-convert switch. A format outside matrix.Formats is
	// rejected before the matrix is read; tuning fails if the format's fill
	// guard rejects the matrix.
	FormatHint    matrix.Format
	HasFormatHint bool

	// SyncConvert has no effect: TuneOpts converts before it returns, and
	// TuneLazy may defer the conversion with or without it.
	//
	// Deprecated: the field stays for benchmark/, which sets it.
	SyncConvert bool

	// Pattern is the matrix's sparsity-pattern signature (matrix.CSR.Sign) when
	// the caller computed one while validating, zero otherwise. A signed
	// matrix takes part in the cache's structure index: the first tune of a
	// pattern scans it and remembers the result, later ones — other values on
	// the same pattern, in whatever arrays — recall it and skip the scan. It
	// must be the signature of the arrays as they are now; a stale or
	// colliding one costs a rescan, not a wrong product (see tuning.run).
	Pattern matrix.Signature
}

// validate rejects option combinations with no defined meaning, before
// anything is read: a negative iteration hint, and a format hint naming a
// format a tuner does not serve (one outside matrix.Formats).
func (o *TuneOptions) validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("autotune: the iteration hint must be positive")
	}
	if o.HasFormatHint && !slices.Contains(matrix.Formats[:], o.FormatHint) {
		return fmt.Errorf("autotune: format hint %v is not one a tuner serves %v", o.FormatHint, matrix.Formats)
	}
	return nil
}

// NeverAmortize is the BreakEvenIters sentinel recorded when converting can
// never pay off: the converted format's per-SpMV rate does not beat the
// tuned-CSR incumbent's, so no iteration count justifies the conversion.
const NeverAmortize = 1 << 30

// BreakEven returns the smallest iteration count k at which paying
// convertSec up front and running k SpMVs at chosenSec beats running all k
// on the unconverted matrix at incumbentSec:
//
//	convertSec + k·chosenSec ≤ k·incumbentSec
//
// It returns NeverAmortize when the chosen format is not actually faster
// (gain ≤ 0) or when either rate is missing (≤ 0): without measurements the
// safe answer is to keep serving CSR rather than convert on a guess.
func BreakEven(convertSec, incumbentSec, chosenSec float64) int {
	if incumbentSec <= 0 || chosenSec <= 0 {
		return NeverAmortize
	}
	gain := incumbentSec - chosenSec
	if gain <= 0 {
		return NeverAmortize
	}
	be := math.Ceil(convertSec / gain)
	if be < 1 {
		return 1
	}
	if be >= NeverAmortize {
		return NeverAmortize
	}
	return int(be)
}

// validForHint returns the cache-entry validation predicate for a tuning
// request on m, whose ELL form is padded to width. With an iteration hint, a
// non-CSR entry must carry the leader's amortisation measurements —
// otherwise the break-even point cannot be computed and the entry is treated
// as stale and re-tuned — and a leader's view conversion answers only a
// matrix that converts to a view too (matrix.CSR.ELLView). This is how
// cached decisions are validated against the iteration hint while staying
// keyed purely by the structural fingerprint, which rounds small raggedness
// into the uniform bucket.
func validForHint[T matrix.Float](opts TuneOptions, m *matrix.CSR[T], width int) func(CacheEntry) bool {
	if opts.Iterations <= 0 {
		return nil
	}
	return func(e CacheEntry) bool {
		return e.Format == matrix.FormatCSR ||
			(e.ConvertSec > 0 && e.SpMVSec > 0 && e.IncumbentSec > 0 && (!e.ConvertView || m.ELLView(width)))
	}
}
