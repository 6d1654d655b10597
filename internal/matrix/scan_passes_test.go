package matrix_test

import (
	"reflect"
	"testing"

	"smat/internal/matrix"
	"smat/internal/oracle"
)

// TestScanIsItsTwoPasses: the row pass alone leaves the diagonal tally unset
// and bounds it — every occupied diagonal lies in [BandLo, BandHi], and the
// outermost two an entry of a row end lies on are occupied, so the band is
// tight; the column pass over that record gives exactly Scan's.
func TestScanIsItsTwoPasses(t *testing.T) {
	for _, spec := range oracle.Specs() {
		m, err := oracle.BuildCSR[float64](&spec)
		if err != nil {
			t.Fatal(err)
		}
		s, want := matrix.ScanRows(m), matrix.Scan(m)
		if s.DiagOffsets != nil || s.DiagCounts != nil {
			t.Errorf("%s: the row pass tallied diagonals", spec.Name)
		}
		switch n := len(want.DiagOffsets); {
		case n == 0:
			if s.Band() != 0 {
				t.Errorf("%s: band [%d, %d] on a matrix without entries", spec.Name, s.BandLo, s.BandHi)
			}
		case s.BandLo != want.DiagOffsets[0] || s.BandHi != want.DiagOffsets[n-1]:
			t.Errorf("%s: band [%d, %d], occupied diagonals span [%d, %d]", spec.Name, s.BandLo, s.BandHi, want.DiagOffsets[0], want.DiagOffsets[n-1])
		}
		matrix.ScanColumns(m, s)
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: row pass then column pass\n got  %+v\n want %+v", spec.Name, s, want)
		}
	}
}
