package matrix

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// pattern builds a CSR matrix of the given shape from rows of column lists.
func pattern(cols int, rows ...[]int) *CSR[float64] {
	m := &CSR[float64]{Rows: len(rows), Cols: cols, RowPtr: make([]int, len(rows)+1)}
	for r, cs := range rows {
		m.ColIdx = append(m.ColIdx, cs...)
		m.RowPtr[r+1] = len(m.ColIdx)
	}
	m.Vals = make([]float64, len(m.ColIdx))
	for i := range m.Vals {
		m.Vals[i] = float64(i + 1)
	}
	return m
}

func mustSign(t *testing.T, m *CSR[float64]) Signature {
	t.Helper()
	sig, err := m.Sign()
	if err != nil {
		t.Fatal(err)
	}
	if sig == 0 {
		t.Fatal("a valid matrix signed 0, the mark of an unsigned one")
	}
	return sig
}

// TestSignIsByContent: a signature is a function of RowPtr and ColIdx as
// sequences and of nothing else — not of the values, not of which arrays hold
// the pattern.
func TestSignIsByContent(t *testing.T) {
	m := randCSR(rand.New(rand.NewSource(5)), 300, 280, 0.03)
	sig := mustSign(t, m)
	c := m.Clone()
	for i := range c.Vals {
		c.Vals[i] = -c.Vals[i]
	}
	if got := mustSign(t, c); got != sig {
		t.Errorf("an equal copy with other values signed %#x, the original %#x", got, sig)
	}
	if got := mustSign(t, m); got != sig {
		t.Errorf("signing twice gave %#x then %#x", sig, got)
	}
	f := &CSR[float32]{Rows: m.Rows, Cols: m.Cols, RowPtr: m.RowPtr, ColIdx: m.ColIdx, Vals: make([]float32, m.NNZ())}
	if got, err := f.Sign(); err != nil || got != sig {
		t.Errorf("the pattern under float32 values signed %#x (%v), under float64 %#x", got, err, sig)
	}
}

// TestSignTellsPatternsApart: patterns that differ in one place, or hold the
// same columns in other rows, or the same entries in another order of rows,
// sign differently (the shape is not signed: it travels beside the signature) —
// including the pairs a weaker hash would confuse: a unit
// moved between neighbours of one row (both lanes of the row's chains), rows
// swapped 64 apart, an entry moved across a row boundary, empty rows moved.
func TestSignTellsPatternsApart(t *testing.T) {
	long := make([][]int, 130)
	for r := range long {
		long[r] = []int{r % 7, 10 + r%5}
	}
	swapped := slices.Clone(long)
	swapped[3], swapped[67] = swapped[67], swapped[3]

	for _, c := range []struct {
		name string
		a, b *CSR[float64]
	}{
		{"one column moved", pattern(9, []int{0, 4}, []int{1, 5, 8}), pattern(9, []int{0, 4}, []int{1, 6, 8})},
		{"a unit traded inside a row", pattern(12, []int{1, 5, 9, 11}), pattern(12, []int{1, 6, 8, 11})},
		{"a unit traded across lanes", pattern(12, []int{2, 5, 9}), pattern(12, []int{3, 4, 9})},
		{"entry across a row boundary", pattern(9, []int{0, 4, 7}, []int{8}), pattern(9, []int{0, 4}, []int{7, 8})},
		{"rows exchanged", pattern(9, []int{0, 4}, []int{1, 5, 8}, []int{2}), pattern(9, []int{2}, []int{1, 5, 8}, []int{0, 4})},
		{"empty row moved", pattern(5, []int{1}, nil, []int{2}), pattern(5, []int{1}, []int{2}, nil)},
		{"empty rows only, other count", pattern(5, nil, nil), pattern(5, nil, nil, nil)},
		{"rows 64 apart exchanged", pattern(20, long...), pattern(20, swapped...)},
	} {
		if sa, sb := mustSign(t, c.a), mustSign(t, c.b); sa == sb {
			t.Errorf("%s: both patterns signed %#x", c.name, sa)
		}
	}
}

// TestSignRejectsWhatValidateRejects: the two are one pass, so they agree on
// every corruption, message included, and an invalid matrix has no signature.
func TestSignRejectsWhatValidateRejects(t *testing.T) {
	for _, corrupt := range []func(m *CSR[float64]){
		func(m *CSR[float64]) { m.ColIdx[3] = m.Cols },
		func(m *CSR[float64]) { m.ColIdx[3] = -1 },
		func(m *CSR[float64]) { m.ColIdx[1], m.ColIdx[2] = m.ColIdx[2], m.ColIdx[1] },
		func(m *CSR[float64]) { m.ColIdx[2] = m.ColIdx[1] },
		func(m *CSR[float64]) { m.RowPtr[2], m.RowPtr[1] = m.RowPtr[1], m.RowPtr[2]+1 },
		func(m *CSR[float64]) { m.RowPtr[1] = len(m.ColIdx) + 3 },
	} {
		m := pattern(9, []int{0, 2, 4, 6}, []int{1, 5, 8}, []int{3})
		corrupt(m)
		sig, err := m.Sign()
		verr := m.Validate()
		if err == nil || verr == nil || err.Error() != verr.Error() || sig != 0 {
			t.Errorf("Sign gave %#x, %v; Validate %v", sig, err, verr)
		}
	}
}

// truncated returns m's first n stored entries as a matrix of m's shape.
func truncated(m *CSR[float64], n int) *CSR[float64] {
	out := &CSR[float64]{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, len(m.RowPtr)), ColIdx: m.ColIdx[:n], Vals: m.Vals[:n]}
	for i, p := range m.RowPtr {
		out.RowPtr[i] = min(p, n)
	}
	return out
}

// samePattern reports whether a and b store the same positions.
func samePattern(a, b *CSR[float64]) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx)
}

// checkForeignLayout is the contract of the scan-fed conversions for a
// layout of the right shape from whatever pattern: they return
// ErrStructureMismatch, or exactly what the stand-alone conversion returns.
func checkForeignLayout(t *testing.T, m, other *CSR[float64]) {
	t.Helper()
	l := &Scan(other).Layout
	if d, err := m.ToDIAFrom(l, 0); err == nil {
		want, _ := m.ToDIA(0)
		if !slices.Equal(d.Offsets, want.Offsets) || !slices.Equal(d.Data, want.Data) {
			t.Fatalf("DIA from a foreign layout: offsets %v, stand-alone %v", d.Offsets, want.Offsets)
		}
	} else if !errors.Is(err, ErrStructureMismatch) {
		t.Fatalf("DIA from a foreign layout: %v", err)
	}
	if e, err := m.ToELLFrom(l, 0); err == nil {
		want, _ := m.ToELL(0)
		if e.Width != want.Width || !slices.Equal(e.ColIdx, want.ColIdx) || !slices.Equal(e.Data, want.Data) {
			t.Fatalf("ELL from a foreign layout: width %d, stand-alone %d", e.Width, want.Width)
		}
	} else if !errors.Is(err, ErrStructureMismatch) {
		t.Fatalf("ELL from a foreign layout: %v", err)
	}
}

// TestConvertFromForeignLayout: every way a layout of the right shape can be
// wrong is an error, never a misplaced entry, an index out of range or a
// wider representation than the matrix's own: diagonals the record lacks
// (inside its band, outside it, no record of any), diagonals it lists in
// excess, rows longer than its width, a width no row reaches.
func TestConvertFromForeignLayout(t *testing.T) {
	for _, c := range []struct {
		name     string
		m, other *CSR[float64]
		dia, ell bool // whether the conversion must fail
	}{
		{"diagonal missing inside the band", pattern(4, []int{0, 1}, []int{1}, []int{2}, []int{3}), pattern(4, []int{0, 2}, []int{1}, []int{2}, []int{3}), true, false},
		{"diagonal outside the band", pattern(4, []int{0}, []int{1}, []int{2}, []int{0}), pattern(4, []int{0}, []int{1}, []int{2}, []int{3}), true, false},
		{"diagonal below the band", pattern(4, []int{1}, []int{2}, []int{3}, []int{0}), pattern(4, []int{1}, []int{2}, []int{3}, []int{3}), true, false},
		{"diagonals in excess", pattern(4, []int{0}, []int{1}, []int{2}, []int{3}), pattern(4, []int{0}, []int{1}, []int{2}, []int{0}), true, false},
		{"row longer than the width", pattern(4, []int{0, 1, 2}, nil, []int{2}), pattern(4, []int{0, 1}, []int{1}, []int{2}), true, true},
		{"width no row reaches", pattern(4, []int{0, 1}, []int{1}, []int{2}), pattern(4, []int{0, 1, 2}, nil, []int{2}), true, true},
		{"the same pattern in other arrays", pattern(4, []int{0, 1}, []int{1}, []int{2}), pattern(4, []int{0, 1}, []int{1}, []int{2}), false, false},
	} {
		l := &Scan(c.other).Layout
		if _, err := c.m.ToDIAFrom(l, 0); errors.Is(err, ErrStructureMismatch) != c.dia {
			t.Errorf("%s: DIA conversion returned %v", c.name, err)
		}
		if _, err := c.m.ToELLFrom(l, 0); errors.Is(err, ErrStructureMismatch) != c.ell {
			t.Errorf("%s: ELL conversion returned %v", c.name, err)
		}
		checkForeignLayout(t, c.m, c.other)

		// A remembered layout may have dropped its diagonals: no use to DIA.
		slim := *l
		slim.DiagOffsets = nil
		if _, err := c.m.ToDIAFrom(&slim, 0); !errors.Is(err, ErrStructureMismatch) {
			t.Errorf("%s: DIA conversion from a layout without diagonals returned %v", c.name, err)
		}
	}
}
