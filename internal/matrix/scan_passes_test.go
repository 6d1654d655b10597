package matrix_test

import (
	"reflect"
	"testing"

	"smat/internal/matrix"
	"smat/internal/oracle"
)

// TestScanIsItsTwoPasses: the row pass reads RowPtr alone — it gives the same
// record when ColIdx is withheld — and leaves the diagonal tally unset; the
// column pass adds the tally and nothing else: Scan's record with the tally
// taken out is the row pass's.
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
		blind := *m
		blind.ColIdx = nil
		if got := matrix.ScanRows(&blind); !reflect.DeepEqual(got, s) {
			t.Errorf("%s: the row pass depends on ColIdx\n got  %+v\n want %+v", spec.Name, got, s)
		}
		if want.DiagOffsets == nil || want.DiagCounts == nil {
			t.Errorf("%s: Scan tallied no diagonals", spec.Name)
		}
		want.DiagOffsets, want.DiagCounts = nil, nil
		if !reflect.DeepEqual(s, want) {
			t.Errorf("%s: the row pass\n got  %+v\n Scan %+v", spec.Name, s, want)
		}
	}
}

// TestSampleDiagonals: the sample never counts more diagonals than the tally,
// nor more true ones than it counts; on a matrix it reads whole (at most
// DiagSample entries) both counts are the tally's. It gives the same counts on
// every call, and allocates nothing.
func TestSampleDiagonals(t *testing.T) {
	const occupancy = 0.8
	whole := 0
	for _, spec := range oracle.Specs() {
		m, err := oracle.BuildCSR[float64](&spec)
		if err != nil {
			t.Fatal(err)
		}
		s := matrix.Scan(m)
		exact, exactTrue := len(s.DiagOffsets), 0
		for i, off := range s.DiagOffsets {
			length := min(m.Rows, m.Cols-off) - max(0, -off)
			if float64(s.DiagCounts[i]) >= occupancy*float64(length) {
				exactTrue++
			}
		}
		got := matrix.SampleDiagonals(m, occupancy)
		switch {
		case got.Diags > exact || got.True > got.Diags:
			t.Errorf("%s: sampled %+v of %d diagonals", spec.Name, got, exact)
		case m.NNZ() <= matrix.DiagSample && got != (matrix.DiagonalSample{Diags: exact, True: exactTrue}):
			t.Errorf("%s: %d entries read whole, sampled %+v of %d diagonals (%d true)", spec.Name, m.NNZ(), got, exact, exactTrue)
		case m.NNZ() <= matrix.DiagSample:
			whole++
		}
		if again := matrix.SampleDiagonals(m, occupancy); again != got {
			t.Errorf("%s: sampled %+v, then %+v", spec.Name, got, again)
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = matrix.SampleDiagonals(m, occupancy) }); allocs != 0 {
			t.Errorf("%s: the sample allocates %v times", spec.Name, allocs)
		}
	}
	if whole == 0 {
		t.Error("no oracle structure fits the sample whole")
	}
}
