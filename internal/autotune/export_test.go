package autotune

import (
	"smat/internal/features"
	"smat/internal/matrix"
)

// ModelAlways gives the external tests (which can import the oracle; this
// package cannot, the oracle imports it) the one-rule model of the internal
// ones.
var ModelAlways = modelAlways

// PlantStructure forces a signature collision: it files what scanning of
// yields — features and full layout — in c's structure index under the
// pattern of under, which must have of's shape and entry count. The next
// signed tune of under recalls another pattern's record.
func PlantStructure[T matrix.Float](c *Cache, under, of *matrix.CSR[T]) {
	sig, err := under.Sign()
	if err != nil {
		panic(err)
	}
	s := matrix.Scan(of)
	c.rememberStructure(structureKey{sig: sig, rows: under.Rows, cols: under.Cols, nnz: under.NNZ()},
		&structureRecord{features: features.FromStructure(s), layout: s.Layout})
}
