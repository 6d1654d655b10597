package matrix

import (
	"math/rand"
	"testing"
)

// randCSR builds a random valid CSR matrix for property tests.
func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR[float64] {
	var ts []Triple[float64]
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < density {
				ts = append(ts, Triple[float64]{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := FromTriples(rows, cols, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func mustCSR(t *testing.T, rows, cols int, ts []Triple[float64]) *CSR[float64] {
	t.Helper()
	m, err := FromTriples(rows, cols, ts)
	if err != nil {
		t.Fatalf("FromTriples: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return m
}

// paperCSR is the 4x4 example matrix from Figure 2 of the paper:
//
//	1 5 0 0
//	0 2 6 0
//	8 0 3 7
//	0 9 0 4
func paperCSR(t *testing.T) *CSR[float64] {
	return mustCSR(t, 4, 4, []Triple[float64]{
		{0, 0, 1}, {0, 1, 5},
		{1, 1, 2}, {1, 2, 6},
		{2, 0, 8}, {2, 2, 3}, {2, 3, 7},
		{3, 1, 9}, {3, 3, 4},
	})
}

func TestPaperExampleCSRLayout(t *testing.T) {
	m := paperCSR(t)
	wantPtr := []int{0, 2, 4, 7, 9}
	wantIdx := []int{0, 1, 1, 2, 0, 2, 3, 1, 3}
	wantVal := []float64{1, 5, 2, 6, 8, 3, 7, 9, 4}
	for i, w := range wantPtr {
		if m.RowPtr[i] != w {
			t.Errorf("RowPtr[%d] = %d, want %d", i, m.RowPtr[i], w)
		}
	}
	for i, w := range wantIdx {
		if m.ColIdx[i] != w {
			t.Errorf("ColIdx[%d] = %d, want %d", i, m.ColIdx[i], w)
		}
	}
	for i, w := range wantVal {
		if m.Vals[i] != w {
			t.Errorf("Vals[%d] = %g, want %g", i, m.Vals[i], w)
		}
	}
}

func TestCSRAt(t *testing.T) {
	m := paperCSR(t)
	cases := []struct {
		r, c int
		want float64
	}{
		{0, 0, 1}, {0, 1, 5}, {0, 2, 0}, {0, 3, 0},
		{1, 0, 0}, {1, 1, 2}, {1, 2, 6},
		{2, 0, 8}, {2, 1, 0}, {2, 2, 3}, {2, 3, 7},
		{3, 1, 9}, {3, 3, 4}, {3, 0, 0},
	}
	for _, tc := range cases {
		if got := m.At(tc.r, tc.c); got != tc.want {
			t.Errorf("At(%d,%d) = %g, want %g", tc.r, tc.c, got, tc.want)
		}
	}
}

func TestCSRValidateRejectsCorruption(t *testing.T) {
	check := func(name string, corrupt func(*CSR[float64])) {
		m := paperCSR(t)
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted matrix", name)
		}
	}
	check("short RowPtr", func(m *CSR[float64]) { m.RowPtr = m.RowPtr[:3] })
	check("bad first ptr", func(m *CSR[float64]) { m.RowPtr[0] = 1 })
	check("bad last ptr", func(m *CSR[float64]) { m.RowPtr[4] = 5 })
	check("non-monotone ptr", func(m *CSR[float64]) { m.RowPtr[1] = 3; m.RowPtr[2] = 2 })
	check("column out of range", func(m *CSR[float64]) { m.ColIdx[0] = 9 })
	check("negative column", func(m *CSR[float64]) { m.ColIdx[0] = -1 })
	check("duplicate column", func(m *CSR[float64]) { m.ColIdx[1] = 0 })
	check("unsorted columns", func(m *CSR[float64]) { m.ColIdx[0], m.ColIdx[1] = 1, 0 })
	check("len mismatch", func(m *CSR[float64]) { m.Vals = m.Vals[:8] })
}

// TestCSRValidateRowEndPastEntries: a row end beyond the stored entries, with
// every column before it in order, is an error — not an out-of-range read.
func TestCSRValidateRowEndPastEntries(t *testing.T) {
	m := &CSR[float64]{Rows: 2, Cols: 4, RowPtr: []int{0, 9, 4}, ColIdx: []int{0, 1, 2, 3}, Vals: []float64{1, 2, 3, 4}}
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted RowPtr[1] = 9 over 4 stored entries")
	}
}

func TestCOOValidateRejectsCorruption(t *testing.T) {
	check := func(name string, corrupt func(*COO[float64])) {
		m := paperCSR(t).ToCOO()
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupted matrix", name)
		}
	}
	check("row out of range", func(m *COO[float64]) { m.RowIdx[0] = 4 })
	check("col out of range", func(m *COO[float64]) { m.ColIdx[0] = -2 })
	check("unsorted", func(m *COO[float64]) {
		m.RowIdx[0], m.RowIdx[1] = m.RowIdx[1], m.RowIdx[0]
		m.RowIdx[0] = 3
	})
	check("duplicate", func(m *COO[float64]) {
		m.RowIdx[1] = m.RowIdx[0]
		m.ColIdx[1] = m.ColIdx[0]
	})
	check("len mismatch", func(m *COO[float64]) { m.Vals = m.Vals[:3] })
}

func TestFormatStringAndParse(t *testing.T) {
	for _, f := range []Format{FormatCSR, FormatCOO, FormatDIA, FormatELL} {
		got, err := ParseFormat(f.String())
		if err != nil {
			t.Fatalf("ParseFormat(%q): %v", f.String(), err)
		}
		if got != f {
			t.Errorf("round trip %v -> %v", f, got)
		}
	}
	if _, err := ParseFormat("XYZ"); err == nil {
		t.Error("ParseFormat accepted unknown format")
	}
	if _, err := ParseFormat("BCSR"); err == nil {
		t.Error("ParseFormat accepted the removed BCSR format")
	}
	if s := Format(99).String(); s != "Format(99)" {
		t.Errorf("unknown format String() = %q", s)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := paperCSR(t)
	c := m.Clone()
	c.Vals[0] = 42
	c.ColIdx[0] = 3
	c.RowPtr[1] = 0
	if m.Vals[0] != 1 || m.ColIdx[0] != 0 || m.RowPtr[1] != 2 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowDegree(t *testing.T) {
	m := paperCSR(t)
	want := []int{2, 2, 3, 2}
	for r, w := range want {
		if got := m.RowDegree(r); got != w {
			t.Errorf("RowDegree(%d) = %d, want %d", r, got, w)
		}
	}
	if got := m.MaxRowDegree(); got != 3 {
		t.Errorf("MaxRowDegree = %d, want 3", got)
	}
}

func TestNNZCounts(t *testing.T) {
	m := paperCSR(t)
	if m.NNZ() != 9 {
		t.Fatalf("CSR NNZ = %d, want 9", m.NNZ())
	}
	if got := m.ToCOO().NNZ(); got != 9 {
		t.Errorf("COO NNZ = %d, want 9", got)
	}
	d, err := m.ToDIA(0)
	if err != nil {
		t.Fatalf("ToDIA: %v", err)
	}
	if got := d.NNZ(); got != 9 {
		t.Errorf("DIA NNZ = %d, want 9 (fill not counted)", got)
	}
	e, err := m.ToELL(0)
	if err != nil {
		t.Fatalf("ToELL: %v", err)
	}
	if got := e.NNZ(); got != 9 {
		t.Errorf("ELL NNZ = %d, want 9 (padding not counted)", got)
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := mustCSR(t, 3, 5, nil)
	if m.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", m.NNZ())
	}
	if err := m.ToCOO().Validate(); err != nil {
		t.Errorf("empty COO invalid: %v", err)
	}
	d, err := m.ToDIA(0)
	if err != nil {
		t.Fatalf("ToDIA: %v", err)
	}
	if len(d.Offsets) != 0 {
		t.Errorf("empty DIA has %d offsets", len(d.Offsets))
	}
	e, err := m.ToELL(0)
	if err != nil {
		t.Fatalf("ToELL: %v", err)
	}
	if e.Width != 0 {
		t.Errorf("empty ELL width = %d", e.Width)
	}
}
