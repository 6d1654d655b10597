package oracle_test

import (
	"math"
	"testing"

	"smat"
	"smat/internal/oracle"
)

// TestTunerDifferentialAgainstReference closes the loop through the public
// API: for every generated structure, the auto-tuned CSRSpMV — whatever
// format and kernel the tuner picks — must agree with a float64 reference
// accumulated straight off the coordinate triples.
func TestTunerDifferentialAgainstReference(t *testing.T) {
	tn := smat.NewTuner[float64](smat.DefaultModel(), smat.WithThreads(3))
	defer tn.Close()

	for _, s := range oracle.Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			entries := make([]smat.Entry[float64], len(s.Triples))
			for i, tr := range s.Triples {
				entries[i] = smat.Entry[float64]{Row: tr.Row, Col: tr.Col, Val: tr.Val}
			}
			a, err := smat.FromEntries(s.Rows, s.Cols, entries)
			if err != nil {
				t.Fatal(err)
			}

			x := make([]float64, s.Cols)
			for c := range x {
				x[c] = float64((c*13)%31-15) / 8
			}
			want := make([]float64, s.Rows)
			absSum := make([]float64, s.Rows)
			for _, tr := range s.Triples {
				want[tr.Row] += tr.Val * x[tr.Col]
				absSum[tr.Row] += math.Abs(tr.Val * x[tr.Col])
			}

			y := make([]float64, s.Rows)
			for i := range y {
				y[i] = math.NaN()
			}
			if err := tn.CSRSpMV(a, x, y); err != nil {
				t.Fatal(err)
			}
			op := a.Operator()
			for r := range y {
				tol := 0x1p-50 * (absSum[r] + math.Abs(want[r]))
				if math.IsNaN(y[r]) || math.Abs(y[r]-want[r]) > tol {
					t.Fatalf("%s kernel %s: y[%d] = %g, reference %g",
						op.Format(), op.KernelName(), r, y[r], want[r])
				}
			}
		})
	}
}
