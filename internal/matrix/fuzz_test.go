package matrix

import (
	"errors"
	"testing"
)

// decodeRawTriples maps fuzzer bytes onto dimensions and triples WITHOUT
// clamping: bytes decode as signed, so negative dimensions and out-of-range
// coordinates — exactly the inputs FromTriples must reject rather than
// panic on or silently accept — are reachable.
func decodeRawTriples(data []byte) (rows, cols int, ts []Triple[float64]) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	rows, cols = int(int8(data[0])), int(int8(data[1]))
	data = data[2:]
	for len(data) >= 3 && len(ts) < 256 {
		ts = append(ts, Triple[float64]{
			Row: int(int8(data[0])),
			Col: int(int8(data[1])),
			Val: float64(int8(data[2])) / 8,
		})
		data = data[3:]
	}
	return rows, cols, ts
}

// FuzzFromTriples checks the constructor's contract on arbitrary input:
// invalid input (negative dimensions, out-of-range coordinates) returns an
// error — never a panic, never a silently invalid matrix — and valid input
// yields a Validate-clean CSR whose entries are exactly the per-coordinate
// sums of the triples.
func FuzzFromTriples(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 0, 0, 8, 1, 2, 16})
	f.Add([]byte{0xff, 4, 0, 0, 8})         // rows = -1
	f.Add([]byte{4, 0xfe, 0, 0, 8})         // cols = -2
	f.Add([]byte{4, 4, 9, 0, 8})            // row out of range
	f.Add([]byte{4, 4, 0, 0xf0, 8})         // negative column
	f.Add([]byte{4, 4, 1, 1, 8, 1, 1, 248}) // cancelling duplicate (+1, -1)
	f.Add([]byte{0, 7, 0, 0, 8})            // 0xN with an out-of-range triple

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, ts := decodeRawTriples(data)
		valid := rows >= 0 && cols >= 0
		for _, tr := range ts {
			if tr.Row < 0 || tr.Row >= rows || tr.Col < 0 || tr.Col >= cols {
				valid = false
			}
		}
		m, err := FromTriples(rows, cols, ts)
		if valid && err != nil {
			t.Fatalf("valid input rejected: %v", err)
		}
		if !valid {
			if err == nil {
				t.Fatalf("invalid input (%dx%d) accepted", rows, cols)
			}
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("constructed matrix invalid: %v", err)
		}
		sums := make(map[[2]int]float64)
		for _, tr := range ts {
			sums[[2]int{tr.Row, tr.Col}] += tr.Val
		}
		nnz := 0
		for rc, want := range sums {
			// Values are exact eighths, so duplicate summing is exact and
			// zero sums are exactly zero.
			if got := m.At(rc[0], rc[1]); got != want {
				t.Fatalf("At(%d,%d) = %g, want %g", rc[0], rc[1], got, want)
			}
			if want != 0 {
				nnz++
			}
		}
		if m.NNZ() != nnz {
			t.Fatalf("NNZ = %d, want %d", m.NNZ(), nnz)
		}
	})
}

// decodeInRangeTriples reduces coordinates into range, so every input
// decodes to a buildable matrix and the fuzzer explores structure instead
// of rejection paths.
func decodeInRangeTriples(data []byte) (rows, cols int, ts []Triple[float64]) {
	if len(data) < 2 {
		return 0, 0, nil
	}
	rows, cols = int(data[0])%49, int(data[1])%49
	data = data[2:]
	if rows == 0 || cols == 0 {
		return rows, cols, nil
	}
	for len(data) >= 3 && len(ts) < 256 {
		ts = append(ts, Triple[float64]{
			Row: int(data[0]) % rows,
			Col: int(data[1]) % cols,
			Val: float64(int8(data[2])) / 8,
		})
		data = data[3:]
	}
	return rows, cols, ts
}

// FuzzConvertRoundTrip checks every format conversion on arbitrary
// structures: each representation must satisfy its own Validate and convert
// back to exactly the CSR it came from (fill-guard rejections are the only
// accepted failure).
func FuzzConvertRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0, 0, 20})
	f.Add([]byte{10, 10, 0, 0, 8, 1, 1, 8, 2, 2, 8, 3, 3, 8})
	f.Add([]byte{3, 48, 0, 0, 8, 1, 47, 16, 2, 24, 24})
	f.Add([]byte{16, 16, 3, 4, 12, 3, 4, 244, 5, 5, 30, 0, 15, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, cols, ts := decodeInRangeTriples(data)
		m, err := FromTriples(rows, cols, ts)
		if err != nil {
			t.Fatalf("in-range input rejected: %v", err)
		}

		coo := m.ToCOO()
		if err := coo.Validate(); err != nil {
			t.Fatalf("COO: %v", err)
		}
		if !m.Equal(coo.ToCSR()) {
			t.Fatal("COO round trip changed matrix")
		}

		if d, err := m.ToDIA(8); err == nil {
			if err := d.Validate(); err != nil {
				t.Fatalf("DIA: %v", err)
			}
			if !m.Equal(d.ToCSR()) {
				t.Fatal("DIA round trip changed matrix")
			}
		} else if !errors.Is(err, ErrFillExplosion) {
			t.Fatalf("DIA conversion: %v", err)
		}

		if e, err := m.ToELL(8); err == nil {
			if err := e.Validate(); err != nil {
				t.Fatalf("ELL: %v", err)
			}
			if !m.Equal(e.ToCSR()) {
				t.Fatal("ELL round trip changed matrix")
			}
		} else if !errors.Is(err, ErrFillExplosion) {
			t.Fatalf("ELL conversion: %v", err)
		}

		h := m.ToHYB(-1)
		if err := h.Validate(); err != nil {
			t.Fatalf("HYB: %v", err)
		}
		if !m.Equal(h.ToCSR()) {
			t.Fatal("HYB round trip changed matrix")
		}

		if b, err := m.ToBCSR(0, 0, 8); err == nil {
			if err := b.Validate(); err != nil {
				t.Fatalf("BCSR: %v", err)
			}
			if !m.Equal(b.ToCSR()) {
				t.Fatal("BCSR round trip changed matrix")
			}
		} else if !errors.Is(err, ErrFillExplosion) {
			t.Fatalf("BCSR conversion: %v", err)
		}
	})
}

// FuzzConvertForeignStructure hands each of two valid patterns of equal shape
// and entry count the other's structure scan: the scan-fed DIA and ELL
// conversions must return ErrStructureMismatch or exactly the stand-alone
// conversion — never panic, misplace an entry or pad beyond the matrix's own
// width or diagonals — and in three row chunks the verdict of one. It is what lets a structure record be looked up under a
// hash: whatever comes back is checked by the conversion that uses it. The
// two signatures must differ exactly when the patterns do.
func FuzzConvertForeignStructure(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 2, 0, 0, 1, 1, 2, 2, 3, 3})                                     // two diagonals' halves
	f.Add([]byte{5, 5, 5, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0}) // main diagonal vs. a shifted one
	f.Add([]byte{3, 6, 3, 0, 0, 0, 1, 0, 2, 0, 0, 1, 1, 2, 2})                         // one full row vs. one entry a row
	f.Add([]byte{6, 6, 4, 0, 5, 1, 4, 2, 3, 3, 2, 5, 0, 4, 1, 3, 2, 2, 3})             // anti-diagonal halves
	f.Add([]byte{2, 2, 1, 0, 0, 0, 0})                                                 // the same pattern twice

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		rows, cols, split := int(data[0])%49, int(data[1])%49, int(data[2])
		if rows == 0 || cols == 0 {
			return
		}
		var ta, tb []Triple[float64]
		for data = data[3:]; len(data) >= 2 && len(ta)+len(tb) < 256; data = data[2:] {
			tr := Triple[float64]{Row: int(data[0]) % rows, Col: int(data[1]) % cols, Val: 1}
			if len(ta) < split {
				ta = append(ta, tr)
			} else {
				tb = append(tb, tr)
			}
		}
		a, errA := FromTriples(rows, cols, ta)
		b, errB := FromTriples(rows, cols, tb)
		if errA != nil || errB != nil {
			t.Fatalf("in-range input rejected: %v, %v", errA, errB)
		}
		n := min(a.NNZ(), b.NNZ())
		a, b = truncated(a, n), truncated(b, n)
		sa, errA := a.Sign()
		sb, errB := b.Sign()
		if errA != nil || errB != nil {
			t.Fatalf("truncation broke a matrix: %v, %v", errA, errB)
		}
		if (sa == sb) != samePattern(a, b) {
			t.Fatalf("signatures %#x and %#x for patterns that are the same: %v", sa, sb, samePattern(a, b))
		}
		checkForeignLayout(t, a, b)
		checkForeignLayout(t, b, a)
	})
}
