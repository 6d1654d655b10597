package main

import (
	"fmt"
	"math"

	"smat/internal/matrix"
)

// eps is float64 unit roundoff, the oracle's tolerance unit.
const eps = 0x1p-52

// reference is a matrix's float64 single-thread product with one x, kept
// with the per-row absolute sums the tolerance needs so each later check
// costs one pass over y.
type reference struct {
	want, absSum []float64
	deg          []int
}

// newReference computes y = A·x serially, row by row, in CSR order.
func newReference(m *matrix.CSR[float64], x []float64) *reference {
	r := &reference{want: make([]float64, m.Rows), absSum: make([]float64, m.Rows), deg: make([]int, m.Rows)}
	for i := 0; i < m.Rows; i++ {
		var s, a float64
		for jj := m.RowPtr[i]; jj < m.RowPtr[i+1]; jj++ {
			p := m.Vals[jj] * x[m.ColIdx[jj]]
			s += p
			a += math.Abs(p)
		}
		r.want[i], r.absSum[i], r.deg[i] = s, a, m.RowPtr[i+1]-m.RowPtr[i]
	}
	return r
}

// refSpMV is the benchmark's own serial CSR product y = A·x. It is the
// yardstick of op_cost_ref_spmv: sampled beside every timed operation, on
// the same matrix, and sharing no code with the program under test.
func refSpMV(m *matrix.CSR[float64], x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for jj := m.RowPtr[i]; jj < m.RowPtr[i+1]; jj++ {
			s += m.Vals[jj] * x[m.ColIdx[jj]]
		}
		y[i] = s
	}
}

// check compares y with the reference under the differential oracle's
// per-row bound eps·(deg+4)·(Σ|aᵣₖxₖ| + |want|) and returns the first
// violation.
func (r *reference) check(y []float64) error {
	return r.checkScaled(y, 1, 0, 1)
}

// checkScaled checks column j of an interleaved batch of width k whose
// vector was x·scale (scale a power of two, so the reference scales exactly).
func (r *reference) checkScaled(yb []float64, k, j int, scale float64) error {
	if len(yb) != len(r.want)*k {
		return fmt.Errorf("result has %d entries, want %d", len(yb), len(r.want)*k)
	}
	for i := range r.want {
		got, want := yb[i*k+j], r.want[i]*scale
		tol := eps * float64(r.deg[i]+4) * (r.absSum[i]*scale + math.Abs(want))
		if d := math.Abs(got - want); !(d <= tol) {
			return fmt.Errorf("row %d: got %g want %g (|diff| %g > tol %g)", i, got, want, d, tol)
		}
	}
	return nil
}

// relResidual recomputes ‖b − A·x‖₂/‖b‖₂ with the serial reference product,
// independent of whatever operator the solver iterated.
func relResidual(m *matrix.CSR[float64], b, x []float64) float64 {
	var res, nb float64
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for jj := m.RowPtr[i]; jj < m.RowPtr[i+1]; jj++ {
			s += m.Vals[jj] * x[m.ColIdx[jj]]
		}
		d := b[i] - s
		res += d * d
		nb += b[i] * b[i]
	}
	if nb == 0 {
		return math.Sqrt(res)
	}
	return math.Sqrt(res / nb)
}

// checks counts attempted and failed operations and keeps the first few
// failure messages for the report.
type checks struct {
	attempted, failed int
	messages          []string
}

func (c *checks) op(err error, format string, args ...any) {
	c.attempted++
	if err != nil {
		c.fail(fmt.Sprintf(format, args...) + ": " + err.Error())
	}
}

// expect records a broken invariant (hit/miss count, convergence) as a
// failed operation.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(fmt.Sprintf(format, args...))
	}
}

func (c *checks) fail(msg string) {
	c.failed++
	if len(c.messages) < 10 {
		c.messages = append(c.messages, msg)
	}
}
