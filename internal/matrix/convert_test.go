package matrix

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFromTriplesDeduplicatesAndCancels(t *testing.T) {
	m, err := FromTriples(2, 2, []Triple[float64]{
		{0, 0, 1}, {0, 0, 2}, // duplicates sum
		{1, 1, 5}, {1, 1, -5}, // duplicates cancel -> dropped
		{0, 1, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 0); got != 3 {
		t.Errorf("At(0,0) = %g, want 3", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %g, want 0 (cancelled)", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestFromTriplesRejectsOutOfRange(t *testing.T) {
	for _, tr := range []Triple[float64]{{-1, 0, 1}, {0, -1, 1}, {2, 0, 1}, {0, 2, 1}} {
		if _, err := FromTriples(2, 2, []Triple[float64]{tr}); err == nil {
			t.Errorf("FromTriples accepted out-of-range triple %+v", tr)
		}
	}
}

func TestPaperExampleCOO(t *testing.T) {
	// Figure 2(b): rows [0 0 1 1 2 2 2 3 3], cols [0 1 1 2 0 2 3 1 3].
	c := paperCSR(t).ToCOO()
	wantRows := []int{0, 0, 1, 1, 2, 2, 2, 3, 3}
	wantCols := []int{0, 1, 1, 2, 0, 2, 3, 1, 3}
	wantVals := []float64{1, 5, 2, 6, 8, 3, 7, 9, 4}
	for i := range wantRows {
		if c.RowIdx[i] != wantRows[i] || c.ColIdx[i] != wantCols[i] || c.Vals[i] != wantVals[i] {
			t.Errorf("entry %d = (%d,%d,%g), want (%d,%d,%g)",
				i, c.RowIdx[i], c.ColIdx[i], c.Vals[i], wantRows[i], wantCols[i], wantVals[i])
		}
	}
}

func TestPaperExampleDIA(t *testing.T) {
	// Figure 2(c): offsets [-2 0 1].
	d, err := paperCSR(t).ToDIA(0)
	if err != nil {
		t.Fatal(err)
	}
	wantOff := []int{-2, 0, 1, 2}
	// The paper's figure draws offsets [-2 0 1]; the example matrix also has
	// entry (2,3)=7 wait: offset 1. And (0,1)=5 offset 1, (1,2)=6 offset 1,
	// (3,3)=4 offset 0, (2,3)=7 offset 1. So offsets are {-2, 0, 1}.
	_ = wantOff
	gotOff := d.Offsets
	want := []int{-2, 0, 1}
	if len(gotOff) != len(want) {
		t.Fatalf("offsets = %v, want %v", gotOff, want)
	}
	for i := range want {
		if gotOff[i] != want[i] {
			t.Fatalf("offsets = %v, want %v", gotOff, want)
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperExampleELL(t *testing.T) {
	m := paperCSR(t)
	e, err := m.ToELL(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Width != 3 {
		t.Fatalf("ELL width = %d, want 3", e.Width)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// Row 2 has three entries: columns 0, 2, 3.
	for slot, wantCol := range []int{0, 2, 3} {
		if got := e.ColIdx[2*e.Width+slot]; got != wantCol {
			t.Errorf("row 2 slot %d col = %d, want %d", slot, got, wantCol)
		}
	}
	// Row 0 has two entries; slot 2 is padding.
	if e.Data[0*e.Width+2] != 0 {
		t.Error("row 0 slot 2 should be zero padding")
	}
}

func TestConversionRoundTripsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(20)
		cols := 1 + r.Intn(20)
		m := randCSR(r, rows, cols, 0.2+r.Float64()*0.5)
		if err := m.Validate(); err != nil {
			t.Logf("invalid source: %v", err)
			return false
		}
		viaCOO := m.ToCOO().ToCSR()
		if !m.Equal(viaCOO) {
			t.Logf("COO round trip mismatch (seed %d)", seed)
			return false
		}
		d, err := m.ToDIA(0)
		if err != nil {
			t.Logf("ToDIA: %v", err)
			return false
		}
		if !m.Equal(d.ToCSR()) {
			t.Logf("DIA round trip mismatch (seed %d)", seed)
			return false
		}
		e, err := m.ToELL(0)
		if err != nil {
			t.Logf("ToELL: %v", err)
			return false
		}
		if !m.Equal(e.ToCSR()) {
			t.Logf("ELL round trip mismatch (seed %d)", seed)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestToDIAFillGuard(t *testing.T) {
	// An anti-diagonal matrix occupies n distinct diagonals with one element
	// each: the worst case for DIA.
	n := 64
	var ts []Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, Triple[float64]{Row: i, Col: n - 1 - i, Val: 1})
	}
	m := mustCSR(t, n, n, ts)
	if _, err := m.ToDIA(4.0); !errors.Is(err, ErrFillExplosion) {
		t.Fatalf("ToDIA err = %v, want ErrFillExplosion", err)
	}
	if _, err := m.ToDIA(0); err != nil {
		t.Fatalf("unlimited ToDIA failed: %v", err)
	}
}

func TestToELLFillGuard(t *testing.T) {
	// One dense row in an otherwise diagonal matrix blows up ELL width.
	n := 64
	ts := []Triple[float64]{}
	for i := 1; i < n; i++ {
		ts = append(ts, Triple[float64]{Row: i, Col: i, Val: 1})
	}
	for c := 0; c < n; c++ {
		ts = append(ts, Triple[float64]{Row: 0, Col: c, Val: 1})
	}
	m := mustCSR(t, n, n, ts)
	if _, err := m.ToELL(4.0); !errors.Is(err, ErrFillExplosion) {
		t.Fatalf("ToELL err = %v, want ErrFillExplosion", err)
	}
	if _, err := m.ToELL(0); err != nil {
		t.Fatalf("unlimited ToELL failed: %v", err)
	}
}

func TestDiagCount(t *testing.T) {
	m := paperCSR(t)
	// The occupied diagonals are Scan's tally: ToDIA and the feature
	// extractor both read it there.
	if offs, want := Scan(m).DiagOffsets, []int{-2, 0, 1}; !slices.Equal(offs, want) {
		t.Fatalf("offsets = %v, want %v", offs, want)
	}
}

func TestApproxEqual(t *testing.T) {
	m := paperCSR(t)
	o := m.Clone()
	o.Vals[0] += 1e-12
	if !m.ApproxEqual(o, 1e-9) {
		t.Error("ApproxEqual rejected tiny perturbation")
	}
	o.Vals[0] += 1
	if m.ApproxEqual(o, 1e-9) {
		t.Error("ApproxEqual accepted large perturbation")
	}
	if m.Equal(o) {
		t.Error("Equal accepted perturbed matrix")
	}
}

func TestDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randCSR(rng, 13, 9, 0.3)
	back := CSRFromDense(m.ToDense())
	if !m.Equal(back) {
		t.Error("dense round trip mismatch")
	}
}

// TestCOOToCSRUnsortedInput is the regression test for the silent-corruption
// bug where ToCSR built RowPtr by counting but copied ColIdx/Vals in input
// order: on COO not sorted by row, values attached to the wrong rows while
// the result still looked structurally plausible.
func TestCOOToCSRUnsortedInput(t *testing.T) {
	// Entries deliberately out of row order (and out of column order within
	// row 0).
	c := &COO[float64]{
		Rows:   3,
		Cols:   3,
		RowIdx: []int{2, 0, 1, 0},
		ColIdx: []int{1, 2, 0, 0},
		Vals:   []float64{5, 7, 11, 13},
	}
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatalf("ToCSR on unsorted COO produced invalid CSR: %v", err)
	}
	want := map[[2]int]float64{{2, 1}: 5, {0, 2}: 7, {1, 0}: 11, {0, 0}: 13}
	for pos, v := range want {
		if got := m.At(pos[0], pos[1]); got != v {
			t.Errorf("At(%d,%d) = %g, want %g", pos[0], pos[1], got, v)
		}
	}
	if m.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", m.NNZ())
	}
}

// TestCOOToCSRDuplicatesSummed: duplicate coordinates in non-canonical COO
// are summed (and dropped when they cancel), matching FromTriples.
func TestCOOToCSRDuplicatesSummed(t *testing.T) {
	c := &COO[float64]{
		Rows:   2,
		Cols:   2,
		RowIdx: []int{1, 0, 1, 0},
		ColIdx: []int{1, 0, 1, 0},
		Vals:   []float64{2, 3, 4, -3},
	}
	m := c.ToCSR()
	if got := m.At(1, 1); got != 6 {
		t.Errorf("duplicate sum At(1,1) = %g, want 6", got)
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1 (cancelling pair dropped)", m.NNZ())
	}
}

// TestCOOToCSRSortedFastPathPreservesZeros: canonical input converts by
// direct copy, keeping explicit zeros and round-tripping exactly.
func TestCOOToCSRSortedFastPathPreservesZeros(t *testing.T) {
	c := &COO[float64]{
		Rows:   2,
		Cols:   3,
		RowIdx: []int{0, 0, 1},
		ColIdx: []int{0, 2, 1},
		Vals:   []float64{1, 0, 4}, // explicit zero survives the fast path
	}
	m := c.ToCSR()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
	back := m.ToCOO()
	if back.Validate() != nil || len(back.Vals) != 3 {
		t.Errorf("round trip lost entries: %+v", back)
	}
}

// TestFromTriplesNegativeDims is the regression test for the construction
// panic: make([]int, rows+1) on rows < -1 panicked, and rows == -1 silently
// returned a structurally invalid matrix.
func TestFromTriplesNegativeDims(t *testing.T) {
	for _, dims := range [][2]int{{-1, 4}, {-2, 4}, {4, -1}, {-3, -3}} {
		m, err := FromTriples[float64](dims[0], dims[1], nil)
		if err == nil {
			t.Errorf("FromTriples(%d, %d) accepted negative dimensions: %+v", dims[0], dims[1], m)
		}
	}
	// Zero-sized dimensions remain valid.
	m, err := FromTriples[float64](0, 5, nil)
	if err != nil {
		t.Fatalf("FromTriples(0, 5) = %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestUniformELLSharesCSRArrays: a matrix whose rows all hold the width is
// its own row-major ELL form, and converting it is a view — the ELL arrays
// are the matrix's ColIdx and Vals, and nothing of O(nnz) is allocated. One
// short row makes it a padded copy of its own. A record of another pattern of
// the same shape is checked against the matrix's row pointers, never trusted:
// ErrStructureMismatch, whichever of the two is uniform.
func TestUniformELLSharesCSRArrays(t *testing.T) {
	uniform := pattern(5, []int{0, 1, 4}, []int{1, 2, 3}, []int{0, 2, 4}, []int{2, 3, 4})
	l := &Scan(uniform).Layout
	e, err := uniform.ToELLFrom(l, 0, Split{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Width != 3 || &e.ColIdx[0] != &uniform.ColIdx[0] || &e.Data[0] != &uniform.Vals[0] {
		t.Fatalf("uniform rows: width %d, arrays shared %v/%v; want width 3 and a view", e.Width,
			&e.ColIdx[0] == &uniform.ColIdx[0], &e.Data[0] == &uniform.Vals[0])
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if !e.ToCSR().Equal(uniform) {
		t.Error("uniform view does not round-trip")
	}
	if allocs := testing.AllocsPerRun(20, func() { uniform.ToELLFrom(l, 0, Split{}) }); allocs > 1 {
		t.Errorf("uniform view: %v allocations a conversion, want the header alone", allocs)
	}

	short := pattern(5, []int{0, 1, 4}, []int{1, 2, 3}, []int{0, 2}, []int{2, 3, 4})
	p, err := short.ToELLFrom(&Scan(short).Layout, 0, Split{})
	if err != nil {
		t.Fatal(err)
	}
	if &p.ColIdx[0] == &short.ColIdx[0] || &p.Data[0] == &short.Vals[0] {
		t.Fatal("one short row: the ELL arrays alias the matrix's")
	}
	wantCols := []int{0, 1, 4, 1, 2, 3, 0, 2, 0, 2, 3, 4}
	wantData := []float64{1, 2, 3, 4, 5, 6, 7, 8, 0, 9, 10, 11}
	if p.Width != 3 || !slices.Equal(p.ColIdx, wantCols) || !slices.Equal(p.Data, wantData) {
		t.Errorf("one short row: width %d, ColIdx %v, Data %v; want 3, %v, %v", p.Width, p.ColIdx, p.Data, wantCols, wantData)
	}

	// Same shape and entry count, rows of 2, 4, 3 and 3 entries.
	ragged := pattern(5, []int{0, 1}, []int{0, 1, 2, 3}, []int{0, 2, 4}, []int{2, 3, 4})
	if _, err := uniform.ToELLFrom(&Scan(ragged).Layout, 0, Split{}); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("uniform matrix, ragged record: %v", err)
	}
	if _, err := ragged.ToELLFrom(l, 0, Split{}); !errors.Is(err, ErrStructureMismatch) {
		t.Errorf("ragged matrix, uniform record: %v", err)
	}
	checkForeignLayout(t, uniform, ragged)
	checkForeignLayout(t, ragged, uniform)
}
