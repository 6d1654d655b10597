package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"smat/internal/matrix"
)

// The four batched bodies as they were before the one-pass rewrite (8-wide
// pass, 4-wide pass, scalar column loop; row-major for DIA and ELL), frozen:
// the reference TestBatchBodiesKeepParentBits holds the tuner-bound bodies to,
// bit for bit.

func refCSRBatchRange[T matrix.Float](m *matrix.CSR[T], xb, yb []T, k, lo, hi int) {
	rowPtr, colIdx, vals := m.RowPtr, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		start, end := rowPtr[i], rowPtr[i+1]
		yr := yb[i*k : (i+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for jj := start; jj < end; jj++ {
				v := vals[jj]
				xc := xb[colIdx[jj]*k+j : colIdx[jj]*k+j+8]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
				s4 += v * xc[4]
				s5 += v * xc[5]
				s6 += v * xc[6]
				s7 += v * xc[7]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
			yr[j+4], yr[j+5], yr[j+6], yr[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= k; j += 4 {
			var s0, s1, s2, s3 T
			for jj := start; jj < end; jj++ {
				v := vals[jj]
				xc := xb[colIdx[jj]*k+j:]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var sum T
			for jj := start; jj < end; jj++ {
				sum += xb[colIdx[jj]*k+j] * vals[jj]
			}
			yr[j] = sum
		}
	}
}

// refCOOBatchRange accumulates; the caller clears the chunk's rows first.
func refCOOBatchRange[T matrix.Float](m *matrix.COO[T], xb, yb []T, k, lo, hi int) {
	rows, cols, vals := m.RowIdx, m.ColIdx, m.Vals
	for i := lo; i < hi; i++ {
		v := vals[i]
		yr := yb[rows[i]*k:]
		xc := xb[cols[i]*k:]
		j := 0
		for ; j+8 <= k; j += 8 {
			yr[j] += v * xc[j]
			yr[j+1] += v * xc[j+1]
			yr[j+2] += v * xc[j+2]
			yr[j+3] += v * xc[j+3]
			yr[j+4] += v * xc[j+4]
			yr[j+5] += v * xc[j+5]
			yr[j+6] += v * xc[j+6]
			yr[j+7] += v * xc[j+7]
		}
		for ; j+4 <= k; j += 4 {
			yr[j] += v * xc[j]
			yr[j+1] += v * xc[j+1]
			yr[j+2] += v * xc[j+2]
			yr[j+3] += v * xc[j+3]
		}
		for ; j < k; j++ {
			yr[j] += v * xc[j]
		}
	}
}

func refELLBatchRange[T matrix.Float](e *matrix.ELL[T], xb, yb []T, k, lo, hi int) {
	w := e.Width
	for r := lo; r < hi; r++ {
		yr := yb[r*k : (r+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for n := 0; n < w; n++ {
				v := e.Data[r*w+n]
				c := int(e.ColIdx[r*w+n])
				xc := xb[c*k+j : c*k+j+8]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
				s4 += v * xc[4]
				s5 += v * xc[5]
				s6 += v * xc[6]
				s7 += v * xc[7]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
			yr[j+4], yr[j+5], yr[j+6], yr[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= k; j += 4 {
			var s0, s1, s2, s3 T
			for n := 0; n < w; n++ {
				v := e.Data[r*w+n]
				c := int(e.ColIdx[r*w+n])
				xc := xb[c*k+j : c*k+j+4]
				s0 += v * xc[0]
				s1 += v * xc[1]
				s2 += v * xc[2]
				s3 += v * xc[3]
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var sum T
			for n := 0; n < w; n++ {
				sum += e.Data[r*w+n] * xb[e.ColIdx[r*w+n]*k+j]
			}
			yr[j] = sum
		}
	}
}

func refDIABatchRange[T matrix.Float](d *matrix.DIA[T], xb, yb []T, k, lo, hi int) {
	for r := lo; r < hi; r++ {
		yr := yb[r*k : (r+1)*k]
		j := 0
		for ; j+8 <= k; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 T
			for i, off := range d.Offsets {
				c := r + off
				if c >= 0 && c < d.Cols {
					v := d.Data[i*d.Rows+r]
					xc := xb[c*k+j : c*k+j+8]
					s0 += v * xc[0]
					s1 += v * xc[1]
					s2 += v * xc[2]
					s3 += v * xc[3]
					s4 += v * xc[4]
					s5 += v * xc[5]
					s6 += v * xc[6]
					s7 += v * xc[7]
				}
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
			yr[j+4], yr[j+5], yr[j+6], yr[j+7] = s4, s5, s6, s7
		}
		for ; j+4 <= k; j += 4 {
			var s0, s1, s2, s3 T
			for i, off := range d.Offsets {
				c := r + off
				if c >= 0 && c < d.Cols {
					v := d.Data[i*d.Rows+r]
					xc := xb[c*k+j : c*k+j+4]
					s0 += v * xc[0]
					s1 += v * xc[1]
					s2 += v * xc[2]
					s3 += v * xc[3]
				}
			}
			yr[j], yr[j+1], yr[j+2], yr[j+3] = s0, s1, s2, s3
		}
		for ; j < k; j++ {
			var sum T
			for i, off := range d.Offsets {
				c := r + off
				if c >= 0 && c < d.Cols {
					sum += d.Data[i*d.Rows+r] * xb[c*k+j]
				}
			}
			yr[j] = sum
		}
	}
}

// batchCase is one matrix a one-pass batched body branches on: the chunk body
// as the table binds it, the frozen parent body over the whole extent, and
// the splits of the extent to run it under.
type batchCase[T matrix.Float] struct {
	name   string
	mat    *Mat[T]
	body   rangeFn[T]
	ref    func(xb, yb []T, k int)
	splits [][]int
	rows   func(lo, hi int) (int, int) // the rows of yb a chunk owns
}

// batchCases builds the shapes the batched bodies branch on. Every third
// matrix row holds magnitudes only, so against an all −0 input column its
// products are all −0 — a body that initialised a row with its first product
// instead of adding it to +0 would return −0 there.
func batchCases[T matrix.Float](t *testing.T) []batchCase[T] {
	rng := rand.New(rand.NewSource(31))
	var cases []batchCase[T]
	everyRow := func(n int, extra ...[]int) [][]int {
		s := [][]int{evenBounds(n, 1), evenBounds(n, 2), evenBounds(n, 3), evenBounds(n, 8)}
		return append(append(s, extra...), evenBounds(n, n))
	}

	dia := func(name string, rows, cols int, offsets []int, extra ...[]int) {
		d := randDIA[T](rng, rows, cols, offsets)
		for i := range offsets {
			for r := 0; r < rows; r += 3 {
				d.Data[i*rows+r] = T(math.Abs(float64(d.Data[i*rows+r]))) // NaN padding stays NaN
			}
		}
		cases = append(cases, batchCase[T]{
			name: "dia/" + name, mat: &Mat[T]{Format: matrix.FormatDIA, DIA: d}, body: diaBatchChunk[T],
			ref:    func(xb, yb []T, k int) { refDIABatchRange(d, xb, yb, k, 0, rows) },
			splits: everyRow(rows, extra...), rows: sameRows,
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
	for _, k := range []int{3, 8} {
		// Interior [2, rows-3): both the matrix and its interior take the
		// tile's size and one row either side; the extra split's end chunks
		// lie wholly in the boundary rows.
		tile := batchTileRows(k)
		for _, rows := range []int{tile - 1, tile, tile + 1, tile + 4, tile + 5, tile + 6, 2*tile + 9} {
			dia(fmt.Sprintf("band5/rows=%d", rows), rows, rows, []int{-2, -1, 0, 1, 3},
				[]int{0, 1, 2, tile / 2, rows - 3, rows - 1, rows})
		}
	}

	for w := 0; w <= 9; w++ {
		for _, rows := range []int{13, batchTileRows(8) + 37} {
			e := randELL[T](rng, rows, 300, w)
			for r := 0; r < rows; r += 3 {
				for i := r * w; i < (r+1)*w; i++ {
					e.Data[i] = T(math.Abs(float64(e.Data[i])))
				}
			}
			cases = append(cases, batchCase[T]{
				name: fmt.Sprintf("ell/w=%d/rows=%d", w, rows), mat: &Mat[T]{Format: matrix.FormatELL, ELL: e}, body: ellBatchChunk[T],
				ref:    func(xb, yb []T, k int) { refELLBatchRange(e, xb, yb, k, 0, rows) },
				splits: everyRow(rows), rows: sameRows,
			})
		}
	}

	// Rows of length 0–9, the last six empty.
	var ts []matrix.Triple[T]
	const csrRows, csrCols = 64, 97
	for r := 0; r < csrRows-6; r++ {
		for _, c := range rng.Perm(csrCols)[:r%10] {
			v := rng.NormFloat64()
			if r%3 == 0 {
				v = math.Abs(v)
			}
			ts = append(ts, matrix.Triple[T]{Row: r, Col: c, Val: T(v)})
		}
	}
	m, err := matrix.FromTriples(csrRows, csrCols, ts)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, batchCase[T]{
		name: "csr", mat: &Mat[T]{Format: matrix.FormatCSR, CSR: m}, body: csrBatchChunk[T],
		ref:    func(xb, yb []T, k int) { refCSRBatchRange(m, xb, yb, k, 0, csrRows) },
		splits: everyRow(csrRows), rows: sameRows,
	})

	// The same matrix as COO: the row-aligned bounds of 1, 2, 3 and 8
	// threads, then a chunk cut at every row boundary.
	cooMat, err := Convert(m, matrix.FormatCOO, 0)
	if err != nil {
		t.Fatal(err)
	}
	coo := cooMat.COO
	cuts := []int{0}
	for n := 1; n < coo.NNZ(); n++ {
		if coo.RowIdx[n] != coo.RowIdx[n-1] {
			cuts = append(cuts, n)
		}
	}
	cuts = append(cuts, coo.NNZ())
	cases = append(cases, batchCase[T]{
		name: "coo", mat: cooMat, body: cooBatchChunk[T],
		ref: func(xb, yb []T, k int) {
			clear(yb)
			refCOOBatchRange(coo, xb, yb, k, 0, coo.NNZ())
		},
		splits: [][]int{cooBounds(coo, 1), cooBounds(coo, 2), cooBounds(coo, 3), cooBounds(coo, 8), cuts},
		rows:   func(lo, hi int) (int, int) { return cooChunkRows(coo, lo, hi) },
	})
	return cases
}

// TestBatchBodiesKeepParentBits holds the four batched bodies a tuner binds
// to the bodies they replaced, bit for bit (signed zeros included): every
// shape in batchCases, every k whose lanes differ, one chunk, 2, 3 and 8
// chunks and a chunk per row. Under every split a chunk must write exactly
// the rows it owns: the even chunks run first and must leave the odd chunks'
// rows alone, then the odd chunks must leave the even chunks' results alone.
func TestBatchBodiesKeepParentBits(t *testing.T) {
	t.Run("float64", keepParentBits[float64])
	t.Run("float32", keepParentBits[float32])
}

func keepParentBits[T matrix.Float](t *testing.T) {
	const sentinel = 12345.5
	bits := func(v T) uint64 { return math.Float64bits(float64(v)) } // exact for float32, sign of zero kept
	rng := rand.New(rand.NewSource(32))
	for _, c := range batchCases[T](t) {
		rows, cols := c.mat.Dims()
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17} {
			xb := make([]T, cols*k)
			for i := range xb {
				xb[i] = T(rng.NormFloat64())
				if i%k == 1 {
					xb[i] = T(math.Copysign(0, -1))
				}
			}
			want := make([]T, rows*k)
			c.ref(xb, want, k)
			for _, bounds := range c.splits {
				yb := make([]T, rows*k)
				for i := range yb {
					yb[i] = sentinel
				}
				run := func(first int) {
					for n := first; n+1 < len(bounds); n += 2 {
						c.body(c.mat, xb, yb, k, bounds[n], bounds[n+1])
					}
				}
				run(0)
				for n := 1; n+1 < len(bounds); n += 2 {
					rLo, rHi := c.rows(bounds[n], bounds[n+1])
					for i := rLo * k; i < rHi*k; i++ {
						if yb[i] != sentinel {
							t.Fatalf("%s k=%d bounds %v: a chunk other than [%d,%d) wrote yb[%d]", c.name, k, bounds, bounds[n], bounds[n+1], i)
						}
					}
				}
				run(1)
				for i := range yb {
					if bits(yb[i]) != bits(want[i]) {
						t.Fatalf("%s k=%d bounds %v: y[%d][col %d] = %v, the parent body gives %v", c.name, k, bounds, i/k, i%k, yb[i], want[i])
					}
				}
			}
		}
	}
}
