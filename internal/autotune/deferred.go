package autotune

import (
	"math"
	"sync/atomic"

	"smat/internal/matrix"
)

// Deferred is the conversion a lazy tune put off (TuneLazy): the confident
// pick, the structure record it converts from and its predicted cost, held by
// the caller's matrix handle while the handle serves tuned CSR. The handle
// converts once its products have paid for the conversion — the deterministic
// ski-rental rule: rent (tuned CSR) until the rent paid would reach the
// purchase price (the predicted conversion), then buy. A caller that makes one
// call never pays for a conversion that could not amortise.
type Deferred[T matrix.Float] struct {
	t   *Tuner[T]
	m   *matrix.CSR[T]
	rec *structureRecord
	key structureKey
	// recalled is set when rec came from the structure index (Tuner.learn).
	recalled bool
	// op is the tuned-CSR operator TuneLazy returned; its decision names the
	// pick (Asymptotic) and, once Schedule ran, the call it converts at.
	op *Operator[T]
	// cost is the predicted conversion in seconds: the pick's stored slots
	// times its convertNsPerSlot.
	cost float64
	// left is the products the handle may still run on tuned CSR; the call
	// that would run more converts first.
	left atomic.Int64
}

// convertNsPerSlot is what converting a CSR matrix to f costs per element slot
// written, in nanoseconds, on the pooled conversion path: the slot-weighted
// means of BENCH_convert.json's convert_ns_per_slot (2 threads), which
// TestConvertCostsMatchArtifact holds these constants to. DIA's includes the
// tally of its diagonals, which a conversion from a record without them
// runs first. COO converts to a view that shares the input's indices and
// values, so its slot is the row index alone.
func convertNsPerSlot(f matrix.Format) float64 {
	switch f {
	case matrix.FormatDIA:
		return 7.9
	case matrix.FormatELL:
		return 1.8
	case matrix.FormatCOO:
		return 1.9
	}
	return 0
}

// storedSlots is the element slots a conversion to f from the record writes,
// known before converting: every diagonal's rows for DIA — the diagonals
// listed, or as many as the features estimate when none are — the widest
// row's degree per row for ELL, one per entry for COO.
func storedSlots(f matrix.Format, rec *structureRecord) int {
	l := &rec.layout
	switch f {
	case matrix.FormatDIA:
		if l.DiagOffsets == nil {
			return rec.features.Ndiags * l.Rows
		}
		return len(l.DiagOffsets) * l.Rows
	case matrix.FormatELL:
		return l.MaxDeg * l.Rows
	}
	return l.NNZ
}

// defers reports that a leader's confident pick is served as tuned CSR and
// its conversion deferred: the call allows it (TuneLazy), carries no hint —
// an iteration hint weighs the conversion up front, a format hint pins it —
// and the pick costs a conversion: not CSR, and not an ELL view of the input's
// own arrays.
func (tn *tuning[T]) defers(c *choice[T]) bool {
	return tn.lazy && tn.opts.Iterations == 0 && !tn.opts.HasFormatHint && c.format != matrix.FormatCSR &&
		!(c.format == matrix.FormatELL && tn.m.ELLView(tn.rec.layout.MaxDeg))
}

// deferral is the Deferred a deferring call hands back for its choice c.
func (tn *tuning[T]) deferral(c *choice[T]) *Deferred[T] {
	return &Deferred[T]{
		t:        tn.t,
		m:        tn.m,
		rec:      tn.rec,
		key:      tn.key,
		recalled: tn.base.StructureHit,
		op:       tn.op,
		cost:     float64(storedSlots(c.format, tn.rec)) * convertNsPerSlot(c.format) * 1e-9,
	}
}

// maxConvertAt caps Decision.ConvertAt, so that a conversion predicted to
// cost more than 2³⁰ products — or a product too fast for the clock — still
// has a call it converts at.
const maxConvertAt = 1 << 30

// convertAt is the ski-rental rule: the first product count whose tuned-CSR
// time, perProduct each, reaches the predicted conversion cost; at least 1.
// The handle converts before that product.
func convertAt(cost, perProduct float64) int {
	n := math.Ceil(cost / perProduct)
	switch {
	case !(n > 1): // NaN included: nothing to pay off, or nothing measured
		return 1
	case n > maxConvertAt:
		return maxConvertAt
	}
	return int(n)
}

// Schedule sets the product the handle converts before, from the handle's
// first call — k products in sec seconds, on the operator TuneLazy returned:
// the ski-rental count, or the first product after that call when its k
// products already reach it, so that the first call itself never converts.
// It runs once, before the handle shares the operator: it writes the
// operator's Decision.ConvertAt.
func (p *Deferred[T]) Schedule(sec float64, k int) {
	n := max(convertAt(p.cost, sec/float64(k)), k+1)
	p.op.dec.ConvertAt = n
	p.left.Store(int64(n - 1 - k))
}

// Due counts a call's k products and reports whether the call runs product
// ConvertAt, and so converts before it runs them: true for exactly one call.
// It is one atomic add.
func (p *Deferred[T]) Due(k int) bool {
	left := p.left.Add(-int64(k))
	return left < 0 && left+int64(k) >= 0
}

// Convert builds the pick through the tuner's one build site and returns the
// operator the handle serves from then on: the pick, its decision the
// deferred one with this conversion recorded (Chosen, Kernel, ConvertSec,
// ConvertStored). The diagonals a DIA conversion tallied go to the pattern's
// record (Tuner.learn). When the conversion fails — the fill guard, or a
// recalled record of another pattern (matrix.ErrStructureMismatch) — it
// returns the tuned-CSR operator again, its decision carrying the error: the
// handle keeps serving tuned CSR, and the products stay right.
func (p *Deferred[T]) Convert() *Operator[T] {
	t, d := p.t, *p.op.dec
	op := *p.op
	op.dec = &d
	e, timing, err := t.build(p.m, &p.rec.layout, d.Asymptotic, t.model.MaxFill)
	if err == nil {
		_, err = t.learn(p.key, p.m, p.rec, p.recalled, e.mat)
	}
	if err != nil {
		d.ConvertErr = err
		return &op
	}
	t.swaps.Add(1)
	op.eng = e
	d.Chosen, d.Kernel = e.kernel.Format, e.kernel.Name
	d.ConvertSec, d.ConvertStored = timing.Sec, timing.Stored
	return &op
}
