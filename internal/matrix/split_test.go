package matrix

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// goRun is a goroutine-backed chunk runner: every chunk on a goroutine of its
// own, joined before it returns — the concurrency of a worker pool without
// one, so the race detector sees chunks write side by side.
func goRun(bounds []int, fn func(chunk, lo, hi int)) {
	var wg sync.WaitGroup
	for c := 0; c+1 < len(bounds); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, bounds[c], bounds[c+1])
		}()
	}
	wg.Wait()
}

// evenSplit cuts rows into n chunks of equal row count (some empty when n >
// rows), run on goroutines.
func evenSplit(rows, n int) Split {
	b := make([]int, n+1)
	for c := range b {
		b[c] = c * rows / n
	}
	return Split{Bounds: b, Run: goRun}
}

// splits are the chunkings every conversion must agree across: 1, 2, 3 and 8
// chunks, and one row per chunk.
func splits(rows int) map[string]Split {
	out := map[string]Split{"one row a chunk": evenSplit(rows, rows)}
	for _, n := range []int{1, 2, 3, 8} {
		out[fmt.Sprintf("%d chunks", n)] = evenSplit(rows, n)
	}
	return out
}

// diagonals builds a rows×cols matrix with full diagonals at offs, each entry
// a distinct value.
func diagonals(rows, cols int, offs ...int) *CSR[float64] {
	var ts []Triple[float64]
	for r := 0; r < rows; r++ {
		for _, off := range offs {
			if c := r + off; c >= 0 && c < cols {
				ts = append(ts, Triple[float64]{Row: r, Col: c, Val: float64(r*cols+c+1) / 8})
			}
		}
	}
	m, err := FromTriples(rows, cols, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameVerdict reports whether two conversion errors are the same: both nil,
// or the same message wrapping the same sentinel.
func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() && errors.Is(a, ErrStructureMismatch) == errors.Is(b, ErrStructureMismatch) &&
		errors.Is(a, ErrFillExplosion) == errors.Is(b, ErrFillExplosion)
}

// TestConversionChunkingKeepsBits: the DIA, ELL and COO conversions are one
// row-range body each, and running it in chunks on goroutines — 1, 2, 3 and 8
// chunks, one row per chunk — returns exactly the one-chunk result: the same
// Data/ColIdx/RowIdx bits, or the same error, for a record of the matrix's
// own pattern and for every way a record can be another pattern's. Diagonals
// the matrix reaches only in its first or last rows make the "diagonal
// reached" verdict a merge across chunks no single chunk can make.
func TestConversionChunkingKeepsBits(t *testing.T) {
	m := diagonals(37, 41, -30, -3, 0, 1, 4, 35)
	own := Scan(m).Layout
	with := func(edit func(l *Layout)) *Layout {
		l := own
		l.DiagOffsets = slices.Clone(own.DiagOffsets)
		edit(&l)
		return &l
	}
	for _, c := range []struct {
		name    string
		l       *Layout
		maxFill float64
		dia     error // the one-chunk verdicts
		ell     error
	}{
		{"own record", &own, 0, nil, nil},
		{"entry on no listed diagonal", with(func(l *Layout) { l.DiagOffsets = slices.Delete(l.DiagOffsets, 2, 3) }), 0, ErrStructureMismatch, nil},
		{"entry on no listed diagonal, last rows only", with(func(l *Layout) { l.DiagOffsets = l.DiagOffsets[1:] }), 0, ErrStructureMismatch, nil},
		{"diagonal no entry reaches", with(func(l *Layout) { l.DiagOffsets = slices.Insert(l.DiagOffsets, 5, 10) }), 0, ErrStructureMismatch, nil},
		{"no diagonals", with(func(l *Layout) { l.DiagOffsets = []int{} }), 0, ErrStructureMismatch, nil},
		{"width no row reaches", with(func(l *Layout) { l.MaxDeg++ }), 0, nil, ErrStructureMismatch},
		{"row longer than the width", with(func(l *Layout) { l.MaxDeg-- }), 0, nil, ErrStructureMismatch},
		{"fill explosion", &own, 1, ErrFillExplosion, ErrFillExplosion},
	} {
		wantD, errD := m.ToDIAFrom(c.l, c.maxFill, Split{})
		wantE, errE := m.ToELLFrom(c.l, c.maxFill, Split{})
		if !errors.Is(errD, c.dia) || !errors.Is(errE, c.ell) {
			t.Fatalf("%s: one chunk returned DIA %v, ELL %v; want %v, %v", c.name, errD, errE, c.dia, c.ell)
		}
		if errD == nil {
			for i, off := range wantD.Offsets {
				for r := 0; r < m.Rows; r++ {
					if col := r + off; col >= 0 && col < m.Cols && wantD.Data[i*m.Rows+r] != m.At(r, col) {
						t.Fatalf("%s: DIA (%d, %d) holds %g, want %g", c.name, r, col, wantD.Data[i*m.Rows+r], m.At(r, col))
					}
				}
			}
		}
		for name, sp := range splits(m.Rows) {
			d, err := m.ToDIAFrom(c.l, c.maxFill, sp)
			if !sameVerdict(err, errD) || (err == nil && (!slices.Equal(d.Offsets, wantD.Offsets) || !bitsEqual(d.Data, wantD.Data))) {
				t.Errorf("%s, %s: DIA returned %v, one chunk %v, or other bits", c.name, name, err, errD)
			}
			e, err := m.ToELLFrom(c.l, c.maxFill, sp)
			if !sameVerdict(err, errE) || (err == nil && (e.Width != wantE.Width || !slices.Equal(e.ColIdx, wantE.ColIdx) || !bitsEqual(e.Data, wantE.Data))) {
				t.Errorf("%s, %s: ELL returned %v, one chunk %v, or other bits", c.name, name, err, errE)
			}
		}
	}

	want := m.ToCOO()
	for name, sp := range splits(m.Rows) {
		if got := m.ToCOOSplit(sp); !slices.Equal(got.RowIdx, want.RowIdx) {
			t.Errorf("COO, %s: RowIdx %v, one chunk %v", name, got.RowIdx, want.RowIdx)
		}
	}
	for r := 0; r < m.Rows; r++ {
		for _, ri := range want.RowIdx[m.RowPtr[r]:m.RowPtr[r+1]] {
			if ri != r {
				t.Fatalf("COO: an entry of row %d has row index %d", r, ri)
			}
		}
	}
}

// TestSplitBoundsMustCoverRows: bounds that leave rows out are a caller bug,
// not a shorter conversion.
func TestSplitBoundsMustCoverRows(t *testing.T) {
	m := diagonals(10, 10, 0)
	for _, b := range [][]int{{0, 5}, {1, 10}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v over 10 rows did not panic", b)
				}
			}()
			m.ToCOOSplit(Split{Bounds: b, Run: goRun})
		}()
	}
}
