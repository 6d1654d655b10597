package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"smat/internal/matrix"
)

// sweptCase is one matrix a check-free body branches on: the body as the
// table binds it, the format's basic body it must agree with, and — where the
// summation order is pinned — the order the body had before it was rewritten.
type sweptCase struct {
	name   string
	mat    *Mat[float64]
	swept  rangeFn[float64]
	basic  func(x, y []float64)
	prior  func(x, y []float64) // nil where the order is the body's own
	splits [][]int              // chunk bounds over [0, extent), the one-chunk split first
	// rows is the range of y a chunk owns: itself for the row-ranged bodies,
	// cooChunkRows for a COO entry range.
	rows func(lo, hi int) (int, int)
}

// rowSplits are the splits of a row-ranged body: 1, 2, 3 and 8 even chunks,
// then any extra bounds, then — on a small matrix — every row its own chunk,
// which puts chunks wholly inside DIA's boundary rows.
func rowSplits(n int, extra ...[]int) [][]int {
	s := [][]int{evenBounds(n, 1), evenBounds(n, 2), evenBounds(n, 3), evenBounds(n, 8)}
	s = append(s, extra...)
	if n <= 64 {
		s = append(s, evenBounds(n, n))
	}
	return s
}

func sameRows(lo, hi int) (int, int) { return lo, hi }

// randDIA builds a DIA matrix with random values inside the matrix and NaN in
// the padding outside it: a body that multiplies padding poisons its row (or
// indexes x out of range).
func randDIA[T matrix.Float](rng *rand.Rand, rows, cols int, offsets []int) *matrix.DIA[T] {
	d := &matrix.DIA[T]{Rows: rows, Cols: cols, Offsets: offsets, Data: make([]T, len(offsets)*rows)}
	for i, k := range offsets {
		for r := 0; r < rows; r++ {
			if c := r + k; c >= 0 && c < cols {
				d.Data[i*rows+r] = T(rng.NormFloat64())
			} else {
				d.Data[i*rows+r] = T(math.NaN())
			}
		}
	}
	return d
}

// randELL builds an ELL matrix whose row r holds r mod (width+1) random
// entries and padding (value 0, column 0) after them.
func randELL[T matrix.Float](rng *rand.Rand, rows, cols, width int) *matrix.ELL[T] {
	e := &matrix.ELL[T]{Rows: rows, Cols: cols, Width: width,
		ColIdx: make([]int, width*rows), Data: make([]T, width*rows)}
	for r := 0; r < rows; r++ {
		for s := 0; s < r%(width+1); s++ {
			e.ColIdx[r*width+s] = rng.Intn(cols)
			e.Data[r*width+s] = T(rng.NormFloat64())
		}
	}
	return e
}

// ellSlotOrder is ell_width's summation order before the grouped tile, which
// widths one to four keep: the row's slots in one expression, paired at four.
func ellSlotOrder(e *matrix.ELL[float64], x, y []float64) {
	p := func(s, r int) float64 { return e.Data[r*e.Width+s] * x[e.ColIdx[r*e.Width+s]] }
	for r := 0; r < e.Rows; r++ {
		switch e.Width {
		case 1:
			y[r] = p(0, r)
		case 2:
			y[r] = p(0, r) + p(1, r)
		case 3:
			y[r] = p(0, r) + p(1, r) + p(2, r)
		case 4:
			y[r] = (p(0, r) + p(1, r)) + (p(2, r) + p(3, r))
		}
	}
}

// csrLaneOrder is the unrolled CSR body's summation order: entry jj of a
// full group into lane jj mod depth, the tail into lane 0, the lanes combined
// pairwise.
func csrLaneOrder(m *matrix.CSR[float64], x, y []float64, depth int) {
	for i := 0; i < m.Rows; i++ {
		s := make([]float64, depth)
		jj, end := m.RowPtr[i], m.RowPtr[i+1]
		for ; jj+depth <= end; jj += depth {
			for k := range s {
				s[k] += x[m.ColIdx[jj+k]] * m.Vals[jj+k]
			}
		}
		for ; jj < end; jj++ {
			s[0] += x[m.ColIdx[jj]] * m.Vals[jj]
		}
		for ; len(s) > 1; s = s[:len(s)/2] {
			for k := 0; k < len(s)/2; k++ {
				s[k] = s[2*k] + s[2*k+1]
			}
		}
		y[i] = s[0]
	}
}

func sweptCases(t *testing.T) []sweptCase {
	rng := rand.New(rand.NewSource(23))
	var cases []sweptCase

	dia := func(name string, rows, cols int, offsets []int, extra ...[]int) {
		mat := &Mat[float64]{Format: matrix.FormatDIA, DIA: randDIA[float64](rng, rows, cols, offsets)}
		cases = append(cases, sweptCase{
			name: "dia_blocked/" + name, mat: mat, swept: diaBlockedChunk[float64],
			basic:  func(x, y []float64) { runDIABasic(mat, x, y, 1, exec[float64]{}) },
			splits: rowSplits(rows, extra...), rows: sameRows,
		})
	}
	pool := []int{-3, -1, 0, 1, 2, 4, -6, 7, 9}
	for _, nd := range []int{1, 2, 3, 4, 5, 7, 9} {
		offs := append([]int(nil), pool[:nd]...)
		sort.Ints(offs)
		dia(fmt.Sprintf("nd=%d", nd), 40, 40, offs)
	}
	dia("no-diagonals", 9, 9, nil)
	dia("band-wider-than-matrix", 6, 6, []int{-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5}) // no interior row
	dia("tall", 50, 20, []int{-3, 0, 2})                                             // interior [3, 18), 32 rows below it
	dia("tall-no-interior", 50, 20, []int{-30, -3, 0, 2, 10})
	dia("wide", 20, 50, []int{-3, 0, 2, 25})
	for _, rows := range []int{tileRows - 1, tileRows, tileRows + 1} {
		dia(fmt.Sprintf("main-diagonal/rows=%d", rows), rows, rows, []int{0}) // every row interior
	}
	for _, rows := range []int{tileRows - 1, tileRows, tileRows + 1, tileRows + 5, tileRows + 6, 2*tileRows + 9} {
		// Interior [2, rows-3); the extra split's end chunks lie wholly in
		// the boundary rows.
		dia(fmt.Sprintf("band5/rows=%d", rows), rows, rows, []int{-2, -1, 0, 1, 3},
			[]int{0, 1, 2, tileRows / 2, rows - 3, rows - 1, rows})
	}

	for w := 0; w <= 9; w++ {
		for _, rows := range []int{13, tileRows + 37} {
			e := randELL[float64](rng, rows, 300, w)
			mat := &Mat[float64]{Format: matrix.FormatELL, ELL: e}
			c := sweptCase{
				name: fmt.Sprintf("ell_width/w=%d/rows=%d", w, rows), mat: mat, swept: ellWidthChunk[float64],
				basic:  func(x, y []float64) { runELLBasic(mat, x, y, 1, exec[float64]{}) },
				splits: rowSplits(rows), rows: sameRows,
			}
			if w >= 1 && w <= 4 {
				c.prior = func(x, y []float64) { ellSlotOrder(e, x, y) }
			}
			cases = append(cases, c)
		}
	}

	// Rows of length 0–9, the last six empty.
	var ts []matrix.Triple[float64]
	const csrRows, csrCols = 64, 97
	for r := 0; r < csrRows-6; r++ {
		for _, c := range rng.Perm(csrCols)[:r%10] {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: rng.NormFloat64()})
		}
	}
	m, err := matrix.FromTriples(csrRows, csrCols, ts)
	if err != nil {
		t.Fatal(err)
	}
	csrMat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	cases = append(cases, sweptCase{
		name: "csr/unroll=4", mat: csrMat, swept: csrChunkUnroll4[float64],
		basic:  func(x, y []float64) { csrRowRange(m, x, y, 0, m.Rows) },
		prior:  func(x, y []float64) { csrLaneOrder(m, x, y, 4) },
		splits: rowSplits(csrRows), rows: sameRows,
	})

	// The same matrix as COO: the row-aligned bounds of 1, 2, 3 and 8
	// threads, then a chunk cut at every row boundary.
	cooMat, err := Convert(m, matrix.FormatCOO, 0)
	if err != nil {
		t.Fatal(err)
	}
	coo := cooMat.COO
	everyRow := []int{0}
	for k := 1; k < coo.NNZ(); k++ {
		if coo.RowIdx[k] != coo.RowIdx[k-1] {
			everyRow = append(everyRow, k)
		}
	}
	everyRow = append(everyRow, coo.NNZ())
	cooBasic := func(x, y []float64) { cooChunk(cooMat, x, y, 1, 0, coo.NNZ()) }
	cases = append(cases, sweptCase{
		name: "coo/unroll=4", mat: cooMat, swept: cooChunkUnroll4[float64],
		basic: cooBasic, prior: cooBasic, // the unrolled body accumulates through y in entry order
		splits: [][]int{cooBounds(coo, 1), cooBounds(coo, 2), cooBounds(coo, 3), cooBounds(coo, 8), everyRow},
		rows:   func(lo, hi int) (int, int) { return cooChunkRows(coo, lo, hi) },
	})
	return cases
}

// TestSweptBodiesEdgeShapes holds each body whose loops were rewritten to be
// check-free to its format's basic body on the shapes the new code branches
// on, and requires the same bits however the work is chunked — a row's result
// may not depend on the chunk it falls in — with every chunk writing exactly
// the rows it owns. Where the rewrite kept the summation order (CSR lanes,
// COO, ELL up to width four) the bits are also the old body's.
func TestSweptBodiesEdgeShapes(t *testing.T) {
	const sentinel = 12345.678
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(29))
	for _, c := range sweptCases(t) {
		rows, cols := c.mat.Dims()
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		c.basic(x, want)
		var whole []float64
		for _, bounds := range c.splits {
			y := make([]float64, rows)
			for i := range y {
				y[i] = sentinel
			}
			for k := 0; k+1 < len(bounds); k++ {
				c.swept(c.mat, x, y, 1, bounds[k], bounds[k+1])
				_, rHi := c.rows(bounds[k], bounds[k+1])
				for r := rHi; r < rows; r++ {
					if y[r] != sentinel {
						t.Fatalf("%s: chunk [%d,%d) of %v wrote y[%d], past its rows", c.name, bounds[k], bounds[k+1], bounds, r)
					}
				}
			}
			if whole == nil {
				whole = y
				if !matrix.VecApproxEqual(y, want, 1e-9) {
					t.Fatalf("%s: disagrees with the basic body", c.name)
				}
				if c.prior != nil {
					prior := make([]float64, rows)
					c.prior(x, prior)
					for r := range y {
						if !sameBits(y[r], prior[r]) {
							t.Fatalf("%s: y[%d] = %v, the earlier summation order gives %v", c.name, r, y[r], prior[r])
						}
					}
				}
				continue
			}
			for r := range y {
				if !sameBits(y[r], whole[r]) {
					t.Fatalf("%s: y[%d] = %v under bounds %v, %v in one chunk", c.name, r, y[r], bounds, whole[r])
				}
			}
		}
	}
}
