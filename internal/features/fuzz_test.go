package features_test

import (
	"math/rand"
	"slices"
	"testing"

	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// decodeBand maps fuzzer bytes onto a valid CSR matrix of at most 48×48:
// the first two bytes are the shape, each further three an entry (row,
// column, value), reduced into range; duplicates sum and zero sums drop, as
// matrix.FromTriples has it.
func decodeBand(t *testing.T, data []byte) *matrix.CSR[float64] {
	var rows, cols int
	var ts []matrix.Triple[float64]
	if len(data) >= 2 {
		rows, cols = int(data[0])%49, int(data[1])%49
		for data = data[2:]; rows > 0 && cols > 0 && len(data) >= 3 && len(ts) < 256; data = data[3:] {
			ts = append(ts, matrix.Triple[float64]{Row: int(data[0]) % rows, Col: int(data[1]) % cols, Val: float64(int8(data[2])) / 8})
		}
	}
	m, err := matrix.FromTriples(rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// encodeBand is decodeBand's inverse on a matrix it can hold.
func encodeBand(m *matrix.CSR[float64]) []byte {
	out := []byte{byte(m.Rows), byte(m.Cols)}
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			out = append(out, byte(r), byte(m.ColIdx[k]), 8)
		}
	}
	return out
}

// bandSeed is one of FuzzBandProof's seeds, with whether the row pass proves
// its band full.
type bandSeed struct {
	name  string
	m     *matrix.CSR[float64]
	proof bool
}

func bandSeeds(t testing.TB) []bandSeed {
	rng := rand.New(rand.NewSource(1))
	from := func(rows, cols int, at func(r, c int) bool) *matrix.CSR[float64] {
		var ts []matrix.Triple[float64]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if at(r, c) {
					ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: 1})
				}
			}
		}
		m, err := matrix.FromTriples(rows, cols, ts)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	return []bandSeed{
		{"full band", gen.MultiDiagonal[float64](40, []int{-2, -1, 0, 1, 2}, rng), true},
		{"inner diagonal missing", gen.MultiDiagonal[float64](40, []int{-2, -1, 1, 2}, rng), false},
		{"empty rows", from(40, 40, func(r, c int) bool { return (r < 10 || r >= 20) && c-r >= -1 && c-r <= 1 }), true},
		{"one row", from(1, 30, func(_, c int) bool { return c >= 4 && c < 9 }), true},
		{"rectangular", from(20, 45, func(r, c int) bool { return c-r >= 3 && c-r <= 6 }), true},
		{"empty", from(7, 9, func(int, int) bool { return false }), true},
	}
}

// TestBandSeedsProve: a full band is proven from its longest row, a band that
// misses an inner diagonal is not, and the degenerate shapes — empty rows, one
// row, M ≠ N, no entry — behave as the bounds say.
func TestBandSeedsProve(t *testing.T) {
	for _, c := range bandSeeds(t) {
		s := matrix.ScanRows(c.m)
		ft := features.FromStructure(s)
		if got := ft.BandFull(s.Band()); got != c.proof {
			t.Errorf("%s: BandFull = %v over a band of %d, want %v", c.name, got, s.Band(), c.proof)
		}
	}
}

// FuzzBandProof: whenever the row pass's bounds pin Ndiags at the band's width
// (Features.BandFull), the occupied diagonals the full scan tallies are
// exactly BandLo..BandHi — the layout a tune converts DIA from without the
// column pass.
func FuzzBandProof(f *testing.F) {
	for _, c := range bandSeeds(f) {
		f.Add(encodeBand(c.m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := decodeBand(t, data)
		s := matrix.ScanRows(m)
		ft := features.FromStructure(s)
		if !ft.BandFull(s.Band()) {
			return
		}
		band := make([]int, s.Band())
		for i := range band {
			band[i] = s.BandLo + i
		}
		if got := matrix.Scan(m).DiagOffsets; !slices.Equal(got, band) {
			t.Fatalf("%d×%d, %d entries: bounds prove the band %d..%d full, the scan finds diagonals %v",
				m.Rows, m.Cols, m.NNZ(), s.BandLo, s.BandHi, got)
		}
	})
}
