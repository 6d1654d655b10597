package matrix

import (
	"errors"
	"fmt"
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
// ErrStructureMismatch, or exactly what the stand-alone conversion returns —
// in one chunk and in three alike.
func checkForeignLayout(t *testing.T, m, other *CSR[float64]) {
	t.Helper()
	l := &Scan(other).Layout
	var errs [2][2]error // [chunking][DIA, ELL]
	for i, sp := range []Split{{}, evenSplit(m.Rows, 3)} {
		chunks := sp.chunks(m.Rows)
		d, err := m.ToDIAFrom(l, 0, sp)
		if errs[i][0] = err; err == nil {
			want, _ := m.ToDIA(0)
			if !slices.Equal(d.Offsets, want.Offsets) || !slices.Equal(d.Data, want.Data) {
				t.Fatalf("DIA from a foreign layout in %d chunks: offsets %v, stand-alone %v", chunks, d.Offsets, want.Offsets)
			}
		} else if !errors.Is(err, ErrStructureMismatch) {
			t.Fatalf("DIA from a foreign layout in %d chunks: %v", chunks, err)
		}
		e, err := m.ToELLFrom(l, 0, sp)
		if errs[i][1] = err; err == nil {
			want, _ := m.ToELL(0)
			if e.Width != want.Width || !slices.Equal(e.ColIdx, want.ColIdx) || !slices.Equal(e.Data, want.Data) {
				t.Fatalf("ELL from a foreign layout in %d chunks: width %d, stand-alone %d", chunks, e.Width, want.Width)
			}
		} else if !errors.Is(err, ErrStructureMismatch) {
			t.Fatalf("ELL from a foreign layout in %d chunks: %v", chunks, err)
		}
	}
	if !sameVerdict(errs[1][0], errs[0][0]) || !sameVerdict(errs[1][1], errs[0][1]) {
		t.Fatalf("a foreign layout in three chunks: DIA %v, ELL %v; in one: %v, %v", errs[1][0], errs[1][1], errs[0][0], errs[0][1])
	}
}

// TestConvertFromForeignLayout: every way a layout of the right shape can be
// wrong is an error, never a misplaced entry, an index out of range or a
// wider representation than the matrix's own: diagonals the record lacks
// (inside its band, outside it), diagonals it lists in excess, rows longer
// than its width, a width no row reaches. A record that lists no diagonals
// is not wrong: DIA tallies them.
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
		if _, err := c.m.ToDIAFrom(l, 0, Split{}); errors.Is(err, ErrStructureMismatch) != c.dia {
			t.Errorf("%s: DIA conversion returned %v", c.name, err)
		}
		if _, err := c.m.ToELLFrom(l, 0, Split{}); errors.Is(err, ErrStructureMismatch) != c.ell {
			t.Errorf("%s: ELL conversion returned %v", c.name, err)
		}
		checkForeignLayout(t, c.m, c.other)

		// A layout of the row pass lists no diagonals: DIA tallies its own,
		// and converts as it does stand-alone.
		slim := *l
		slim.DiagOffsets = nil
		want, _ := c.m.ToDIA(0)
		if d, err := c.m.ToDIAFrom(&slim, 0, Split{}); err != nil || !slices.Equal(d.Offsets, want.Offsets) || !slices.Equal(d.Data, want.Data) {
			t.Errorf("%s: DIA conversion from a layout without diagonals returned %v", c.name, err)
		}
	}
}

// refValidate is the plain per-row reference for Sign's accept/reject
// decision and its message: the checks in the order a reader would make
// them, one row at a time, each entry against the one before it in the row.
func refValidate(m *CSR[float64]) error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("csr: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.RowPtr) != m.Rows+1 {
		return fmt.Errorf("csr: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	if len(m.ColIdx) != len(m.Vals) {
		return fmt.Errorf("csr: ColIdx length %d != Vals length %d", len(m.ColIdx), len(m.Vals))
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("csr: RowPtr[0] = %d, want 0", m.RowPtr[0])
	}
	if m.RowPtr[m.Rows] != len(m.Vals) {
		return fmt.Errorf("csr: RowPtr[last] = %d, want %d", m.RowPtr[m.Rows], len(m.Vals))
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		if lo > hi {
			return fmt.Errorf("csr: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := lo; k < hi && k < len(m.ColIdx); k++ {
			c := m.ColIdx[k]
			if c < 0 || c >= m.Cols {
				return fmt.Errorf("csr: column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("csr: columns not strictly increasing in row %d", i)
			}
			prev = c
		}
		if hi > len(m.ColIdx) {
			return fmt.Errorf("csr: RowPtr[%d] = %d past the %d stored entries", i+1, hi, len(m.ColIdx))
		}
	}
	return nil
}

// decodeSignInput maps fuzzer bytes onto a CSR of up to 12 rows: a column
// count (signed, so negative and zero widths are reachable), a length per
// row, then the columns as signed bytes — unsorted, repeated, negative or
// past the width as the bytes say — and last an optional corruption of one
// row pointer (index, then a signed delta), which can make RowPtr fall, pass
// the stored entries or miss its ends.
func decodeSignInput(data []byte) *CSR[float64] {
	if len(data) < 2 {
		return &CSR[float64]{RowPtr: []int{0}}
	}
	rows, cols := int(data[0])%13, int(int8(data[1]))
	data = data[2:]
	m := &CSR[float64]{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for r := 0; r < rows; r++ {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%7, data[1:]
		}
		m.RowPtr[r+1] = m.RowPtr[r] + n
	}
	nnz := m.RowPtr[rows]
	m.ColIdx = make([]int, nnz)
	for k := range m.ColIdx {
		if len(data) > 0 {
			m.ColIdx[k], data = int(int8(data[0])), data[1:]
		}
	}
	m.Vals = make([]float64, nnz)
	if len(data) >= 2 {
		m.RowPtr[int(data[0])%(rows+1)] += int(int8(data[1]))
	}
	return m
}

// FuzzSign holds Sign to the per-row reference: the same verdict and the same
// message on every input; on a valid pattern a nonzero signature, equal for
// the pattern copied into other arrays, and different for each pattern one
// entry away — a column moved within its row, or the row boundary moved by
// one entry.
func FuzzSign(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 9, 4, 3, 1, 0, 2, 4, 6, 1, 5, 8, 3})          // valid, rows of 4, 3, 1
	f.Add([]byte{3, 9, 4, 3, 1, 0, 2, 2, 6, 1, 5, 8, 3})          // a repeated column
	f.Add([]byte{3, 9, 4, 3, 1, 0, 2, 4, 9, 1, 5, 8, 3})          // a column at the width
	f.Add([]byte{3, 9, 4, 3, 1, 0, 2, 4, 0xff, 1, 5, 8, 3})       // a negative column
	f.Add([]byte{3, 9, 4, 3, 1, 0, 2, 4, 6, 1, 5, 8, 3, 2, 9})    // a row end past the entries
	f.Add([]byte{3, 9, 4, 3, 1, 0, 2, 4, 6, 1, 5, 8, 3, 1, 0xfc}) // a row end before its start
	f.Add([]byte{4, 5, 0, 2, 0, 1, 3, 4, 0})                      // empty first and last rows
	f.Add([]byte{2, 0xfe})                                        // a negative width
	// Five rows of six columns each, enough to run signCols' four-lane loop over several rows.
	f.Add([]byte{5, 60, 6, 6, 6, 6, 6, 0, 10, 20, 30, 40, 50, 1, 11, 21, 31, 41, 51, 2, 12, 22, 32, 42, 52, 3, 13, 23, 33, 43, 53, 4, 14, 24, 34, 44, 54})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeSignInput(data)
		sig, err := m.Sign()
		want := refValidate(m)
		if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
			t.Fatalf("Sign: %v; reference: %v", err, want)
		}
		if err != nil {
			if sig != 0 {
				t.Fatalf("a rejected matrix signed %#x", sig)
			}
			return
		}
		if sig == 0 {
			t.Fatal("a valid matrix signed 0, the mark of an unsigned one")
		}
		if c := m.Clone(); mustSign(t, c) != sig {
			t.Fatal("the pattern in other arrays signed differently")
		}
		moved := func(what string, o *CSR[float64]) {
			if refValidate(o) != nil {
				return
			}
			if got := mustSign(t, o); got == sig {
				t.Fatalf("%s: both patterns signed %#x", what, sig)
			}
		}
		for k := range m.ColIdx {
			for _, d := range []int{-1, 1} {
				o := m.Clone()
				o.ColIdx[k] += d
				moved(fmt.Sprintf("column %d moved by %d", k, d), o)
			}
		}
		for r := 1; r < m.Rows; r++ {
			for _, d := range []int{-1, 1} {
				o := m.Clone()
				o.RowPtr[r] += d
				moved(fmt.Sprintf("start of row %d moved by %d", r, d), o)
			}
		}
	})
}
