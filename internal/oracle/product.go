package oracle

import (
	"fmt"
	"math"

	"smat/internal/matrix"
)

// CheckProduct verifies y = m·x row by row against a float64 product
// accumulated serially straight off m's arrays, within the per-row rounding
// bound; a NaN in y is an element nothing wrote (poison y first). It is the
// check for a caller that produced y its own way — through a tuner, a
// remembered structure, a forced collision — and wants the suite's verdict on
// it.
func CheckProduct[T matrix.Float](m *matrix.CSR[T], x, y []T, what string) error {
	eps := epsOf[T]()
	for r := 0; r < m.Rows; r++ {
		var want, absSum float64
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			p := float64(m.Vals[jj]) * float64(x[m.ColIdx[jj]])
			want += p
			absSum += math.Abs(p)
		}
		got := float64(y[r])
		if math.IsNaN(got) {
			return fmt.Errorf("oracle: %s: y[%d] unwritten (NaN sentinel survived)", what, r)
		}
		deg := m.RowDegree(r)
		if diff := math.Abs(got - want); diff > rowTolerance(eps, deg, absSum, want) {
			return fmt.Errorf("oracle: %s: y[%d] = %g, reference %g (|diff| %g, deg %d)",
				what, r, got, want, diff, deg)
		}
	}
	return nil
}
