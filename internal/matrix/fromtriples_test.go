package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// stableReference is FromTriples by its definition: the triples sorted
// stably by (row, col), each run of one coordinate summed in that order from
// zero, zero sums dropped.
func stableReference[T Float](rows, cols int, ts []Triple[T]) *CSR[T] {
	s := slices.Clone(ts)
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].Row != s[j].Row {
			return s[i].Row < s[j].Row
		}
		return s[i].Col < s[j].Col
	})
	m := &CSR[T]{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for k := 0; k < len(s); {
		r, c := s[k].Row, s[k].Col
		var sum T
		for ; k < len(s) && s[k].Row == r && s[k].Col == c; k++ {
			sum += s[k].Val
		}
		if sum != 0 {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, sum)
			m.RowPtr[r+1]++
		}
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// sameBits reports how got differs from want, shape, pattern or any value's
// bits, or nil.
func sameBits[T Float](got, want *CSR[T]) error {
	if got.Rows != want.Rows || got.Cols != want.Cols {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if !slices.Equal(got.RowPtr, want.RowPtr) {
		return fmt.Errorf("RowPtr %v, want %v", got.RowPtr, want.RowPtr)
	}
	if !slices.Equal(got.ColIdx, want.ColIdx) {
		return fmt.Errorf("ColIdx %v, want %v", got.ColIdx, want.ColIdx)
	}
	for k := range want.Vals {
		if math.Float64bits(float64(got.Vals[k])) != math.Float64bits(float64(want.Vals[k])) {
			return fmt.Errorf("Vals[%d] = %v, want %v", k, got.Vals[k], want.Vals[k])
		}
	}
	return nil
}

// TestFromTriplesMatchesStableReference holds FromTriples to its
// definition bit for bit, on values whose sums depend on the order they are
// added in (thirds and tenths, not dyadic): duplicates three or more deep,
// unsorted rows short and long, a row of one coordinate repeated, a
// cancelling pair, empty rows and empty shapes.
func TestFromTriplesMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nonDyadic := func() float64 { return float64(rng.Intn(19)-9)/3 + rng.NormFloat64()/10 }
	random := func(rows, cols, n, colSpread int) []Triple[float64] {
		ts := make([]Triple[float64], n)
		for k := range ts {
			ts[k] = Triple[float64]{Row: rng.Intn(rows), Col: rng.Intn(colSpread) % cols, Val: nonDyadic()}
		}
		return ts
	}
	allDup := make([]Triple[float64], 70)
	for k := range allDup {
		allDup[k] = Triple[float64]{Row: 2, Col: 5, Val: nonDyadic()}
	}
	descending := make([]Triple[float64], 300)
	for k := range descending {
		descending[k] = Triple[float64]{Row: 1, Col: (299 - k) / 3, Val: nonDyadic()}
	}
	cases := []struct {
		name       string
		rows, cols int
		ts         []Triple[float64]
	}{
		{"deep duplicates", 20, 20, random(20, 20, 400, 6)},
		{"short unsorted rows", 200, 300, random(200, 300, 1500, 300)},
		{"long unsorted rows", 4, 500, random(4, 500, 2000, 90)},
		{"all-duplicate row", 6, 9, append(random(6, 9, 20, 9), allDup...)},
		{"descending long row", 3, 100, descending},
		{"cancelling pair", 3, 3, []Triple[float64]{{1, 1, 0.1}, {0, 2, 0.3}, {1, 1, -0.1}, {0, 2, 0.7}}},
		{"cancelling triple in a long row", 2, 41, append(random(1, 40, 40, 40),
			Triple[float64]{0, 40, 0.1}, Triple[float64]{0, 40, 0.2}, Triple[float64]{0, 40, -0.30000000000000004})},
		{"empty rows", 50, 10, random(50, 10, 12, 10)},
		{"no triples", 4, 4, nil},
		{"0 rows", 0, 7, nil},
		{"0 cols", 7, 0, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := slices.Clone(c.ts)
			m, err := FromTriples(c.rows, c.cols, c.ts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := sameBits(m, stableReference(c.rows, c.cols, c.ts)); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(in, c.ts) {
				t.Fatal("FromTriples wrote to its input")
			}
			// The float32 path is the same code at another width.
			ts32 := make([]Triple[float32], len(c.ts))
			for k, tr := range c.ts {
				ts32[k] = Triple[float32]{tr.Row, tr.Col, float32(tr.Val)}
			}
			m32, err := FromTriples(c.rows, c.cols, ts32)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(m32, stableReference(c.rows, c.cols, ts32)); err != nil {
				t.Fatalf("float32: %v", err)
			}
		})
	}
}

// TestFromTriplesAllocatesOnlyItsResult: the counting sort allocates the
// CSR and nothing else — no copy of the triples, no second row-sized array.
// Rows of at most 32 entries sort in place; the sizes are whole pages, so
// the large allocations carry no rounding. MemStats.TotalAlloc counts every
// goroutine of the process, so the test keeps the least of five calls: the
// call allocates the same bytes each time, anything else only adds.
func TestFromTriplesAllocatesOnlyItsResult(t *testing.T) {
	const rows, nnz = 4096 - 2, 40960
	rng := rand.New(rand.NewSource(3))
	ts := make([]Triple[float64], nnz)
	for k := range ts {
		ts[k] = Triple[float64]{Row: rng.Intn(rows), Col: rng.Intn(5000), Val: 1 + rng.Float64()}
	}
	if _, err := FromTriples(rows, 5000, ts); err != nil { // warm up
		t.Fatal(err)
	}
	got := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := FromTriples(rows, 5000, ts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(16*nnz + 8*(rows+2) + 1024); got > limit {
		t.Errorf("FromTriples allocated %d bytes for %d triples and %d rows, want ≤ %d", got, nnz, rows, limit)
	}
}
