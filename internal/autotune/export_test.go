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

// PlantStructure forces a signature collision: it files what a tune of of
// records — its features and layout, with the diagonals a DIA conversion
// tallies or, rowsOnly, without — in t's structure index under the pattern of
// under, which must have of's shape and entry count. The next signed tune of
// under recalls another pattern's record.
func PlantStructure[T matrix.Float](t *Tuner[T], under, of *matrix.CSR[T], rowsOnly bool) {
	sig, err := under.Sign()
	if err != nil {
		panic(err)
	}
	ft, s := features.Estimated(of)
	if !rowsOnly {
		s = matrix.Scan(of)
	}
	t.cache.rememberStructure(structureKey{sig: sig, rows: under.Rows, cols: under.Cols, nnz: under.NNZ()},
		&structureRecord{features: ft, layout: s.Layout})
}

// Picks is what a tuner at threads running model makes of a feature record
// before it converts anything: the confident pick, if there is one, and the
// formats the measuring selector would time otherwise. It holds whatever
// GOMAXPROCS is.
func Picks(model *Model, threads int, ft *features.Features) (pick matrix.Format, confident bool, contenders []matrix.Format) {
	t := &Tuner[float64]{model: model, class: model.Class(threads)}
	pick, _, confident = t.predict(ft)
	return pick, confident, t.contenders(ft, min(fallbackMaxFill, model.MaxFill))
}

// ServedMat is the representation the operator serves, for tests that hold
// two tunes' conversions to the same bits.
func (o *Operator[T]) ServedMat() *kernels.Mat[T] { return o.eng.mat }

// CachedEntry returns the decision t's cache holds for m, keyed the way a tune
// of m keys it.
func (t *Tuner[T]) CachedEntry(m *matrix.CSR[T]) (CacheEntry, bool) {
	return t.cache.Get(t.extract(m, TuneOptions{}).base.Features.Key())
}
