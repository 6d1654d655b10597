package features_test

import (
	"strings"
	"testing"

	"smat/internal/features"
	"smat/internal/matrix"
)

// TestRowPassBoundsTheDiagonalFeatures: on every oracle structure and a corpus
// sample, the features of the row pass alone are the full ones with the three
// diagonal parameters left unknown; DiagBounds puts those three — and nothing
// else — in a box the full record lies in, with ER_DIA never above ER_ELL; the
// column pass then completes the record bit for bit; and a full record's box
// is itself.
func TestRowPassBoundsTheDiagonalFeatures(t *testing.T) {
	tight := 0
	for name, m := range sample(t, 10) {
		full := features.Extract(m)
		s := matrix.ScanRows(m)
		part := features.FromStructure(s)
		if part.DiagsKnown() != (m.NNZ() == 0) {
			t.Errorf("%s: row-pass record of %d entries: DiagsKnown = %v", name, m.NNZ(), part.DiagsKnown())
		}
		if !part.DiagsKnown() && !strings.Contains(part.String(), "Ndiags=? NTdiags_ratio=? ER_DIA=?") {
			t.Errorf("%s: row-pass record prints %s", name, part.String())
		}
		known := full
		known.Ndiags, known.NTdiagsRatio, known.ERDIA = part.Ndiags, part.NTdiagsRatio, part.ERDIA
		if part != known {
			t.Errorf("%s: row pass\n got  %+v\n want %+v", name, part, known)
		}

		lo, hi := part.DiagBounds(s.Band())
		if lo.Ndiags > full.Ndiags || full.Ndiags > hi.Ndiags ||
			lo.ERDIA > full.ERDIA || full.ERDIA > hi.ERDIA || hi.ERDIA > full.ERELL ||
			lo.NTdiagsRatio > full.NTdiagsRatio || full.NTdiagsRatio > hi.NTdiagsRatio {
			t.Errorf("%s: full record %+v outside\n [%+v,\n  %+v]", name, full, lo, hi)
		}
		if lo.Ndiags == hi.Ndiags {
			tight++
		}
		for _, b := range []features.Features{lo, hi} {
			b.Ndiags, b.NTdiagsRatio, b.ERDIA = full.Ndiags, full.NTdiagsRatio, full.ERDIA
			if b != full {
				t.Errorf("%s: DiagBounds moved a feature the row pass knows: %+v, full %+v", name, b, full)
			}
		}

		matrix.ScanColumns(m, s)
		part.Diagonals(s)
		if part != full {
			t.Errorf("%s: row pass + column pass\n got  %+v\n want %+v", name, part, full)
		}
		if lo, hi := full.DiagBounds(1 << 30); lo != full || hi != full {
			t.Errorf("%s: a full record's box is not the record", name)
		}
	}
	if tight == 0 {
		t.Error("no sampled matrix has its diagonal count pinned by the row pass: bands and stencils should")
	}
}
