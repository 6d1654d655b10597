package autotune_test

import (
	"math"
	"math/rand"
	"testing"

	"smat/internal/autotune"
	"smat/internal/features"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// product runs op on a fixed x into a NaN-poisoned y and has the oracle check
// it row by row against the serial float64 reference of m.
func product(t *testing.T, op *autotune.Operator[float64], m *matrix.CSR[float64], what string) {
	t.Helper()
	x, y := make([]float64, m.Cols), make([]float64, m.Rows)
	for i := range x {
		x[i] = float64((i*13)%31-15) / 8
	}
	for i := range y {
		y[i] = math.NaN()
	}
	op.MulVec(x, y)
	if err := oracle.CheckProduct(m, x, y, what); err != nil {
		t.Error(err)
	}
}

// halfAndHalf returns an n-row matrix whose even rows hold lo entries and
// whose odd rows hi, on a band near the diagonal.
func halfAndHalf(n, lo, hi int) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for r := 0; r < n; r++ {
		deg := lo
		if r%2 == 1 {
			deg = hi
		}
		for k := 0; k < deg; k++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: (r + 3*k) % n, Val: float64(k+r%5+1) / 8})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// shiftOddRows returns m with every odd row's entries moved by columns to the
// right, wrapping round: the same shape, entry count and row degrees, other
// diagonals.
func shiftOddRows(m *matrix.CSR[float64], by int) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			c := m.ColIdx[k]
			if r%2 == 1 {
				c = (c + by) % m.Cols
			}
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: m.Vals[k]})
		}
	}
	out, err := matrix.FromTriples(m.Rows, m.Cols, ts)
	if err != nil {
		panic(err)
	}
	return out
}

// TestForcedSignatureCollision plants, under a matrix's signature, the record
// of another pattern of its shape and entry count — what a 64-bit collision
// would leave there — and tunes the matrix, for a decision of each basic
// format and down each path a recalled record can take: a confident leader,
// the execute-and-measure selector, a decision-cache hit, a format hint. The
// product is right every time. DIA and ELL consume the record and catch it:
// the tune rescans (no structure hit reported), serves the format from the
// matrix's own structure, and leaves the right record behind, so the next
// tune of the pattern is a structure hit that converts cleanly. COO and CSR
// consume nothing of it. A planted record of the row pass alone — what a tune
// leaves behind until a DIA conversion tallies the pattern's diagonals — is
// another pattern's just the same: ELL takes its width from it and catches it;
// DIA tallies the matrix's own diagonals, and catches it by estimating the
// matrix afresh (Tuner.learn) — a record whose features are the matrix's own
// takes the diagonals and stays. Wherever the record is caught, and for every
// DIA decision, the next tune records the matrix's own features.
func TestForcedSignatureCollision(t *testing.T) {
	const n = 4000
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, c := range []struct {
		name         string
		format       matrix.Format
		m, other     *matrix.CSR[float64]
		caughtByConv bool
		rowsOnly     bool
	}{
		// Same three-diagonal count, other offsets: entries would land on
		// diagonals the record does not list.
		{"DIA", matrix.FormatDIA, gen.MultiDiagonal[float64](n, []int{-1, 0, 2}, rng(1)), gen.MultiDiagonal[float64](n, []int{-2, 0, 1}, rng(2)), true, false},
		{"DIA, row-pass record", matrix.FormatDIA, gen.MultiDiagonal[float64](n, []int{-1, 0, 2}, rng(1)), gen.MultiDiagonal[float64](n, []int{-2, 0, 1}, rng(2)), false, true},
		// The same rows, half of them on three other diagonals: other
		// features.
		{"DIA, row-pass record, other features", matrix.FormatDIA, gen.MultiDiagonal[float64](n, []int{-1, 0, 2}, rng(1)), shiftOddRows(gen.MultiDiagonal[float64](n, []int{-1, 0, 2}, rng(1)), 7), true, true},
		// Three entries a row against two and four: the record's width is one
		// no row of the matrix reaches — and, the other way round, one its
		// rows overflow.
		{"ELL too wide", matrix.FormatELL, halfAndHalf(n, 3, 3), halfAndHalf(n, 2, 4), true, false},
		{"ELL too narrow", matrix.FormatELL, halfAndHalf(n, 2, 4), halfAndHalf(n, 3, 3), true, false},
		{"ELL too wide, row-pass record", matrix.FormatELL, halfAndHalf(n, 3, 3), halfAndHalf(n, 2, 4), true, true},
		{"ELL too narrow, row-pass record", matrix.FormatELL, halfAndHalf(n, 2, 4), halfAndHalf(n, 3, 3), true, true},
		{"COO", matrix.FormatCOO, halfAndHalf(n, 3, 3), halfAndHalf(n, 2, 4), false, false},
		{"CSR", matrix.FormatCSR, halfAndHalf(n, 3, 3), halfAndHalf(n, 2, 4), false, true},
	} {
		if c.m.NNZ() != c.other.NNZ() {
			t.Fatalf("%s: %d and %d entries: not a possible collision", c.name, c.m.NNZ(), c.other.NNZ())
		}
		sig, err := c.m.Sign()
		if err != nil {
			t.Fatal(err)
		}
		own, _ := features.Estimated(c.m)
		for _, path := range []struct {
			name  string
			conf  float64
			prime bool // tune other first: the planted features then hit its decision
			hint  bool
		}{
			{"leader", 0.99, false, false},
			{"fallback", 0.30, false, false},
			{"cache hit", 0.99, true, false},
			{"format hint", 0.99, false, true},
		} {
			what := c.name + "/" + path.name
			tuner := autotune.New[float64](autotune.ModelAlways(c.format, path.conf), autotune.Config{Threads: 2})
			if path.prime {
				if _, _, err := tuner.TuneOpts(c.other, autotune.TuneOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			autotune.PlantStructure(tuner, c.m, c.other, c.rowsOnly)
			opts := autotune.TuneOptions{Pattern: sig}
			if path.hint {
				opts.FormatHint, opts.HasFormatHint = c.format, true
			}
			op, d, err := tuner.TuneOpts(c.m, opts)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			product(t, op, c.m, what)
			caught := c.caughtByConv
			if d.StructureHit == caught {
				t.Errorf("%s: structure hit %v on a planted record, want %v", what, d.StructureHit, !caught)
			}
			if confident := path.conf > 0.85; confident && d.Chosen != c.format {
				t.Errorf("%s: chose %v", what, d.Chosen)
			}
			if st := tuner.Stats(); st.StructureHits != 1 {
				t.Errorf("%s: %d structure hits counted, want the one planted recall", what, st.StructureHits)
			}

			// The rescan replaced the record: the pattern is now known for what
			// it is.
			op, d, err = tuner.TuneOpts(c.m, opts)
			if err != nil || !d.StructureHit {
				t.Fatalf("%s: second tune: structure hit %v, err %v", what, d.StructureHit, err)
			}
			product(t, op, c.m, what+" again")
			if (caught || c.format == matrix.FormatDIA) && d.Features != own {
				t.Errorf("%s: second tune recorded %+v, the matrix's own features are %+v", what, d.Features, own)
			}
			tuner.Close()
		}
	}
}

// TestStaleSignatureIsCaught: arrays rewritten in place after signing — the
// handle's contract broken — recall the record of the pattern they held when
// signed. That record is another pattern's as surely as a collision's, and is
// caught the same way.
func TestStaleSignatureIsCaught(t *testing.T) {
	const n = 3000
	m := gen.MultiDiagonal[float64](n, []int{-1, 0, 2}, rand.New(rand.NewSource(3)))
	tuner := autotune.New[float64](autotune.ModelAlways(matrix.FormatDIA, 0.99), autotune.Config{Threads: 2})
	defer tuner.Close()
	sig, err := m.Sign()
	if err != nil {
		t.Fatal(err)
	}
	opts := autotune.TuneOptions{Pattern: sig}
	if _, _, err := tuner.TuneOpts(m, opts); err != nil {
		t.Fatal(err)
	}
	other := gen.MultiDiagonal[float64](n, []int{-2, 0, 1}, rand.New(rand.NewSource(4)))
	copy(m.RowPtr, other.RowPtr)
	copy(m.ColIdx, other.ColIdx)
	op, d, err := tuner.TuneOpts(m, opts)
	if err != nil || d.StructureHit || d.Chosen != matrix.FormatDIA {
		t.Fatalf("stale signature: structure hit %v, chose %v, err %v", d.StructureHit, d.Chosen, err)
	}
	product(t, op, m, "stale signature")
}
