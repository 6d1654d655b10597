package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"smat/internal/matrix"
)

// slotMajor is an ELL matrix in the slot-major layout ELL had before it was
// stored row-major — slot s of row r at data[s*rows+r] — for the frozen
// bodies below, which read it.
type slotMajor[T matrix.Float] struct {
	rows, width int
	data        []T
	idx         []int
}

// transpose lays e out slot-major.
func transpose[T matrix.Float](e *matrix.ELL[T]) *slotMajor[T] {
	sm := &slotMajor[T]{rows: e.Rows, width: e.Width, data: make([]T, len(e.Data)), idx: make([]int, len(e.ColIdx))}
	for r := 0; r < e.Rows; r++ {
		for s := 0; s < e.Width; s++ {
			sm.data[s*e.Rows+r], sm.idx[s*e.Rows+r] = e.Data[r*e.Width+s], e.ColIdx[r*e.Width+s]
		}
	}
	return sm
}

// cut is the slot-major ellCut: slot s's values and columns for the n rows
// from rb.
func (e *slotMajor[T]) cut(s, rb, n int) ([]T, []int) {
	return e.data[s*e.rows+rb:][:n], e.idx[s*e.rows+rb:][:n]
}

// slotLanes is the slot-major row-major loop with depth accumulators: slot n
// of a full group into lane n mod depth, the tail into lane 0, the lanes
// combined pairwise — ell_rowmajor at depth 1, ell_parallel_unroll4 at 4,
// and the per-row order of the slot-major ell_basic, ell_unroll4 and
// hyb_basic, which accumulated through y from +0.
func slotLanes[T matrix.Float](e *slotMajor[T], x, y []T, depth int) {
	for r := 0; r < e.rows; r++ {
		s := make([]T, depth)
		n := 0
		for ; n+depth <= e.width; n += depth {
			for l := range s {
				s[l] += e.data[(n+l)*e.rows+r] * x[e.idx[(n+l)*e.rows+r]]
			}
		}
		for ; n < e.width; n++ {
			s[0] += e.data[n*e.rows+r] * x[e.idx[n*e.rows+r]]
		}
		for ; len(s) > 1; s = s[:len(s)/2] {
			for l := 0; l < len(s)/2; l++ {
				s[l] = s[2*l] + s[2*l+1]
			}
		}
		y[r] = s[0]
	}
}

// slotWidthRange is ellWidthRange as it was on the slot-major layout, frozen.
func slotWidthRange[T matrix.Float](e *slotMajor[T], x, y []T, lo, hi int) {
	w := e.width
	if w == 0 {
		clear(y[lo:hi])
		return
	}
	head := (w-1)&3 + 1
	for rb := lo; rb < hi; rb += tileRows {
		yt := y[rb:min(rb+tileRows, hi)]
		d0, i0 := e.cut(0, rb, len(yt))
		switch head {
		case 1:
			for r := range yt {
				yt[r] = d0[r] * x[i0[r]]
			}
		case 2:
			d1, i1 := e.cut(1, rb, len(yt))
			for r := range yt {
				yt[r] = d0[r]*x[i0[r]] + d1[r]*x[i1[r]]
			}
		case 3:
			d1, i1 := e.cut(1, rb, len(yt))
			d2, i2 := e.cut(2, rb, len(yt))
			for r := range yt {
				yt[r] = d0[r]*x[i0[r]] + d1[r]*x[i1[r]] + d2[r]*x[i2[r]]
			}
		case 4:
			d1, i1 := e.cut(1, rb, len(yt))
			d2, i2 := e.cut(2, rb, len(yt))
			d3, i3 := e.cut(3, rb, len(yt))
			for r := range yt {
				yt[r] = (d0[r]*x[i0[r]] + d1[r]*x[i1[r]]) + (d2[r]*x[i2[r]] + d3[r]*x[i3[r]])
			}
		}
		for s := head; s < w; s += 4 {
			d0, i0 := e.cut(s, rb, len(yt))
			d1, i1 := e.cut(s+1, rb, len(yt))
			d2, i2 := e.cut(s+2, rb, len(yt))
			d3, i3 := e.cut(s+3, rb, len(yt))
			for r := range yt {
				yt[r] += (d0[r]*x[i0[r]] + d1[r]*x[i1[r]]) + (d2[r]*x[i2[r]] + d3[r]*x[i3[r]])
			}
		}
	}
}

// slotBatchRange is ellBatchRange as it was on the slot-major layout, frozen
// as the order its lanes were held to (TestBatchBodiesKeepParentBits): a tile
// cleared, then the slots four at a time, each adding its products to a row's
// columns of yb in slot order.
func slotBatchRange[T matrix.Float](e *slotMajor[T], xb, yb []T, k, lo, hi int) {
	w, tile := e.width, batchTileRows(k)
	for rb := lo; rb < hi; rb += tile {
		n := min(tile, hi-rb)
		yt := yb[rb*k:][:n*k]
		clear(yt)
		for s := 0; s < w; s += 4 {
			for g := s; g < min(s+4, w); g++ {
				d, c := e.cut(g, rb, n)
				for r, v := range d {
					for j := 0; j < k; j++ {
						yt[r*k+j] += v * xb[c[r]*k+j]
					}
				}
			}
		}
	}
}

// layoutCase is one row-major ELL matrix and its slot-major transpose.
type layoutCase[T matrix.Float] struct {
	name string
	e    *matrix.ELL[T]
	sm   *slotMajor[T]
}

// layoutCases are the widths the bodies branch on, 1–9 and 16, each on a
// matrix of rows shorter than the width (randELL) and on one whose rows are
// all full, at a row count inside one of the old tiles and one across two.
// Every third row holds magnitudes only, so against an all −0 input column
// its products are all −0: a body that started a sum at +0 where the old one
// started at its first product would return +0 there.
func layoutCases[T matrix.Float](rng *rand.Rand) []layoutCase[T] {
	var cases []layoutCase[T]
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16} {
		for _, rows := range []int{13, tileRows + 37} {
			for _, full := range []bool{false, true} {
				e := randELL[T](rng, rows, 300, w)
				if full {
					for i := range e.Data {
						e.ColIdx[i], e.Data[i] = rng.Intn(300), T(rng.NormFloat64())
					}
				}
				for r := 0; r < rows; r += 3 {
					for i := r * w; i < (r+1)*w; i++ {
						e.Data[i] = T(math.Abs(float64(e.Data[i])))
					}
				}
				cases = append(cases, layoutCase[T]{fmt.Sprintf("w=%d/rows=%d/full=%v", w, rows, full), e, transpose(e)})
			}
		}
	}
	return cases
}

// inputX is an input of n·k interleaved random values; with negZero its
// column 1 — every value when k = 1 — is −0 instead.
func inputX[T matrix.Float](rng *rand.Rand, n, k int, negZero bool) []T {
	x := make([]T, n*k)
	for i := range x {
		x[i] = T(rng.NormFloat64())
		if negZero && i%k == min(1, k-1) {
			x[i] = T(math.Copysign(0, -1))
		}
	}
	return x
}

func sameBitsT[T matrix.Float](a, b []T) int {
	for i := range a {
		if math.Float64bits(float64(a[i])) != math.Float64bits(float64(b[i])) {
			return i
		}
	}
	return -1
}

// TestRowMajorELLKeepsParentBits holds every ELL and HYB body, single-vector
// and batched, on the row-major layout to the body it replaced on the
// slot-major one, bit for bit (signed zeros included): the frozen ellWidthRange
// and ellBatchRange above and the slot-major loops' lane orders, fed a
// slot-major transpose of the same matrix, at widths 1–9 and 16, k = 1, 2, 3,
// 4, 8, and — for HYB — at the default width cut. Each kernel runs serially
// and partitioned over three threads.
func TestRowMajorELLKeepsParentBits(t *testing.T) {
	t.Run("float64", rowMajorKeepsParentBits[float64])
	t.Run("float32", rowMajorKeepsParentBits[float32])
}

func rowMajorKeepsParentBits[T matrix.Float](t *testing.T) {
	lib := fullLibrary[T]()
	rng := rand.New(rand.NewSource(33))
	lanes := func(depth int) func(sm *slotMajor[T], x, y []T) {
		return func(sm *slotMajor[T], x, y []T) { slotLanes(sm, x, y, depth) }
	}
	width := func(sm *slotMajor[T], x, y []T) { slotWidthRange(sm, x, y, 0, sm.rows) }
	parent := map[string]func(sm *slotMajor[T], x, y []T){
		"ell_basic": lanes(1), "ell_unroll4": lanes(1), "ell_rowmajor": lanes(1), "ell_parallel": lanes(1),
		"ell_parallel_unroll4": lanes(4),
		"ell_width":            width, "ell_width_parallel": width,
		"hyb_basic": lanes(1), "hyb_width": width, "hyb_width_parallel": width,
	}
	for _, f := range []matrix.Format{matrix.FormatELL, matrix.FormatHYB} {
		for _, kern := range lib.ForFormat(f) {
			if parent[kern.Name] == nil {
				t.Fatalf("%s: no parent body to hold it to", kern.Name)
			}
		}
	}
	check := func(name string, mat *Mat[T], sm *slotMajor[T], tail *matrix.COO[T]) {
		rows, cols := mat.Dims()
		for _, negZero := range []bool{false, true} {
			x := inputX[T](rng, cols, 1, negZero)
			for _, kern := range lib.ForFormat(mat.Format) {
				want := make([]T, rows)
				parent[kern.Name](sm, x, want)
				if tail != nil {
					cooRange(tail, x, want, 0, tail.NNZ())
				}
				for _, threads := range []int{1, 3} {
					got := make([]T, rows)
					kern.Run(mat.Partitioned(), x, got, threads)
					if i := sameBitsT(got, want); i >= 0 {
						t.Fatalf("%s %s, %d threads: y[%d] = %v, the slot-major body gives %v", name, kern.Name, threads, i, got[i], want[i])
					}
				}
			}
			for _, k := range []int{1, 2, 3, 4, 8} {
				xb := inputX[T](rng, cols, k, negZero)
				want := make([]T, rows*k)
				slotBatchRange(sm, xb, want, k, 0, rows)
				if tail != nil {
					cooBatchRange(tail, xb, want, k, 0, tail.NNZ())
				}
				for _, bk := range lib.ForFormatBatch(mat.Format) {
					for _, threads := range []int{1, 3} {
						got := make([]T, rows*k)
						bk.Run(mat.Partitioned(), xb, got, k, threads)
						if i := sameBitsT(got, want); i >= 0 {
							t.Fatalf("%s %s k=%d, %d threads: y[%d][col %d] = %v, the slot-major body gives %v",
								name, bk.Name, k, threads, i/k, i%k, got[i], want[i])
						}
					}
				}
			}
		}
	}
	for _, c := range layoutCases[T](rng) {
		check(c.name, &Mat[T]{Format: matrix.FormatELL, ELL: c.e}, c.sm, nil)
	}

	// HYB: rows of 0–12 entries, a few of 40, cut at the default width.
	var ts []matrix.Triple[T]
	const rows, cols = 300, 250
	for r := 0; r < rows; r++ {
		deg := r % 13
		if r%50 == 7 {
			deg = 40
		}
		for _, c := range rng.Perm(cols)[:deg] {
			v := rng.NormFloat64()
			if r%3 == 0 {
				v = math.Abs(v)
			}
			ts = append(ts, matrix.Triple[T]{Row: r, Col: c, Val: T(v)})
		}
	}
	m, err := matrix.FromTriples(rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := Convert(m, matrix.FormatHYB, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(fmt.Sprintf("hyb/width=%d", mat.HYB.ELL.Width), mat, transpose(mat.HYB.ELL), mat.HYB.COO)
}
