package autotune

import (
	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// ModelAlways gives the external tests (which can import the oracle; this
// package cannot, the oracle imports it) the one-rule model of the internal
// ones.
var ModelAlways = modelAlways

// PlantStructure forces a signature collision: it files what scanning of
// yields — features and layout, of both passes or of the row pass alone — in
// t's structure index under the pattern of under, which must have of's shape
// and entry count. The next signed tune of under recalls another pattern's
// record.
func PlantStructure[T matrix.Float](t *Tuner[T], under, of *matrix.CSR[T], rowsOnly bool) {
	sig, err := under.Sign()
	if err != nil {
		panic(err)
	}
	s := matrix.ScanRows(of)
	if !rowsOnly {
		matrix.ScanColumns(of, s)
	}
	t.cache.rememberStructure(structureKey{sig: sig, rows: under.Rows, cols: under.Cols, nnz: under.NNZ()},
		&structureRecord{features: features.FromStructure(s), layout: s.Layout, band: s.Band()})
}

// TuneFullScan is TuneOpts with the extract stage forced through both passes
// of the scan whatever the row pass decides: the tuner the two-phase extract is
// held to.
func (t *Tuner[T]) TuneFullScan(m *matrix.CSR[T], opts TuneOptions) (*Operator[T], *Decision, error) {
	tn := t.extract(m, opts)
	if tn.base.ColumnPassSkipped {
		tn.columns(nil)
	}
	if err := tn.run(); err != nil {
		return nil, tn.d, err
	}
	return tn.op, tn.d, nil
}

// ServedMat is the representation the operator serves, for tests that hold
// two tunes' conversions to the same bits.
func (o *Operator[T]) ServedMat() *kernels.Mat[T] { return o.eng.mat }

// CachedEntry returns the decision t's cache holds for m, keyed the way a tune
// of m keys it.
func (t *Tuner[T]) CachedEntry(m *matrix.CSR[T]) (CacheEntry, bool) {
	return t.cache.Get(t.extract(m, TuneOptions{}).base.Features.Key())
}
