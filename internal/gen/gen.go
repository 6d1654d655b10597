// Package gen builds synthetic sparse matrices whose structural features
// sweep the same axes as the paper's UF-collection training set: diagonal
// stencils (DIA territory), regular constant-degree matrices (ELL),
// power-law graphs (COO), and irregular general matrices (CSR). The corpus
// package composes these generators into the full training/evaluation
// collection.
package gen

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"smat/internal/matrix"
)

// value returns a random nonzero value in [0.5, 1.5); positive values avoid
// accidental cancellation when random generators emit duplicate coordinates.
func value[T matrix.Float](rng *rand.Rand) T {
	return T(0.5 + rng.Float64())
}

// Laplacian2D5pt returns the 5-point finite-difference Laplacian on an
// nx×ny grid: the classic DIA-friendly stencil matrix.
func Laplacian2D5pt[T matrix.Float](nx, ny int) *matrix.CSR[T] {
	return stencil2D[T](nx, ny, [][2]int{
		{0, -1}, {-1, 0}, {0, 0}, {1, 0}, {0, 1},
	}, func(di, dj int) T {
		if di == 0 && dj == 0 {
			return 4
		}
		return -1
	})
}

// Laplacian2D9pt returns the 9-point Laplacian on an nx×ny grid (the paper's
// "rugeL 9pt" AMG input).
func Laplacian2D9pt[T matrix.Float](nx, ny int) *matrix.CSR[T] {
	offsets := [][2]int{
		{-1, -1}, {0, -1}, {1, -1},
		{-1, 0}, {0, 0}, {1, 0},
		{-1, 1}, {0, 1}, {1, 1},
	}
	return stencil2D[T](nx, ny, offsets, func(di, dj int) T {
		if di == 0 && dj == 0 {
			return 8
		}
		return -1
	})
}

// stencil2D assembles a 2D stencil matrix with natural (row-major) grid
// ordering directly in sorted CSR order.
func stencil2D[T matrix.Float](nx, ny int, offsets [][2]int, coeff func(di, dj int) T) *matrix.CSR[T] {
	n := nx * ny
	m := newCSR[T](n, n, n*len(offsets))
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			row := j*nx + i
			for _, off := range offsets {
				ni, nj := i+off[0], j+off[1]
				if ni < 0 || ni >= nx || nj < 0 || nj >= ny {
					continue
				}
				m.ColIdx = append(m.ColIdx, nj*nx+ni)
				m.Vals = append(m.Vals, coeff(off[0], off[1]))
			}
			m.RowPtr[row+1] = len(m.Vals)
		}
	}
	return m
}

// Laplacian3D7pt returns the 7-point Laplacian on an nx×ny×nz grid (the
// paper's "cljp 7pt" AMG input).
func Laplacian3D7pt[T matrix.Float](nx, ny, nz int) *matrix.CSR[T] {
	n := nx * ny * nz
	offsets := [][3]int{
		{0, 0, -1}, {0, -1, 0}, {-1, 0, 0}, {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	}
	m := newCSR[T](n, n, n*len(offsets))
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				row := (k*ny+j)*nx + i
				for _, off := range offsets {
					ni, nj, nk := i+off[0], j+off[1], k+off[2]
					if ni < 0 || ni >= nx || nj < 0 || nj >= ny || nk < 0 || nk >= nz {
						continue
					}
					var v T = -1
					if off == ([3]int{0, 0, 0}) {
						v = 6
					}
					m.ColIdx = append(m.ColIdx, (nk*ny+nj)*nx+ni)
					m.Vals = append(m.Vals, v)
				}
				m.RowPtr[row+1] = len(m.Vals)
			}
		}
	}
	return m
}

// MultiDiagonal returns an n×n matrix with fully dense diagonals at the
// given offsets: the ideal DIA matrix (NTdiags_ratio = 1). On distinct
// offsets it allocates only its CSR: the values are drawn diagonal by
// diagonal, in the caller's order, into the ColIdx array as float64 bits,
// one sequential run a diagonal; one row-major pass moves them into place in
// Vals, reading one value of each diagonal through the row, and a second
// writes the columns. That staging needs an int of 64 bits: on a 32-bit
// platform, as on repeated offsets, the matrix is assembled from triples.
func MultiDiagonal[T matrix.Float](n int, offsets []int, rng *rand.Rand) *matrix.CSR[T] {
	b, ok := newBand(n, offsets)
	if !ok || n < 0 || bits.UintSize < 64 {
		return diagonalTriples[T](n, offsets, rng)
	}
	rowPtr := make([]int, n+1)
	b.rows(func(r, lo, hi int) { rowPtr[r+1] = rowPtr[r] + hi - lo })
	nnz := rowPtr[n]
	colIdx, vals := make([]int, nnz), make([]T, nnz)
	// Row r of sorted diagonal j is drawn into colIdx[at[j]+r].
	at := b.places()
	for i, off := range offsets {
		first, length := diagonalRows(n, off)
		run := colIdx[at[b.rank[i]]+first:][:length]
		for k := range run {
			run[k] = int(math.Float64bits(float64(value[T](rng))))
		}
	}
	b.rows(func(r, lo, hi int) {
		row := vals[rowPtr[r]:rowPtr[r+1]]
		for k := range row {
			row[k] = T(math.Float64frombits(uint64(colIdx[at[lo+k]+r])))
		}
	})
	b.rows(func(r, lo, hi int) {
		row := colIdx[rowPtr[r]:rowPtr[r+1]]
		for k := range row {
			row[k] = r + b.sorted[lo+k]
		}
	})
	return &matrix.CSR[T]{Rows: n, Cols: n, RowPtr: rowPtr, ColIdx: colIdx, Vals: vals}
}

// diagonalTriples is MultiDiagonal built through FromTriples, which sums a
// repeated position's values in the order they were drawn. Its draws are the
// ones the triple-free assembly makes.
func diagonalTriples[T matrix.Float](n int, offsets []int, rng *rand.Rand) *matrix.CSR[T] {
	ts := make([]matrix.Triple[T], 0, diagonalLength(n, offsets))
	for _, off := range offsets {
		for r := 0; r < n; r++ {
			c := r + off
			if c >= 0 && c < n {
				ts = append(ts, matrix.Triple[T]{Row: r, Col: c, Val: value[T](rng)})
			}
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// SparseDiagonal returns an n×n matrix with diagonals at the given offsets
// where each diagonal position is occupied only with probability fill: a
// DIA-shaped matrix with controllable zero padding (sweeps NTdiags_ratio and
// ER_DIA).
func SparseDiagonal[T matrix.Float](n int, offsets []int, fill float64, rng *rand.Rand) *matrix.CSR[T] {
	ts := make([]matrix.Triple[T], 0, sizeHint(diagonalLength(n, offsets), min(max(fill, 0), 1), 1)+1)
	for _, off := range offsets {
		for r := 0; r < n; r++ {
			c := r + off
			if c >= 0 && c < n && rng.Float64() < fill {
				ts = append(ts, matrix.Triple[T]{Row: r, Col: c, Val: value[T](rng)})
			}
		}
	}
	// Guarantee a nonempty matrix.
	ts = append(ts, matrix.Triple[T]{Row: 0, Col: 0, Val: 1})
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// band is the layout of distinct diagonals in an n×n matrix's row-major
// CSR: a row holds a contiguous run of the offsets in increasing order.
type band struct {
	n      int
	sorted []int // the offsets, increasing
	rank   []int // rank[i] is the place of the caller's offsets[i] in sorted
}

// newBand lays out the diagonals at offsets; it reports false when an
// offset repeats.
func newBand(n int, offsets []int) (band, bool) {
	order := make([]int, len(offsets))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(offsets[a], offsets[b]) })
	b := band{n: n, sorted: make([]int, len(offsets)), rank: make([]int, len(offsets))}
	for j, i := range order {
		b.sorted[j], b.rank[i] = offsets[i], j
		if j > 0 && b.sorted[j] == b.sorted[j-1] {
			return band{}, false
		}
	}
	return b, true
}

// rows calls fn(r, lo, hi) for every row r in order: the diagonals through
// row r are sorted[lo:hi].
func (b band) rows(fn func(r, lo, hi int)) {
	lo, hi := len(b.sorted), len(b.sorted)
	for r := 0; r < b.n; r++ {
		for lo > 0 && b.sorted[lo-1] >= -r {
			lo--
		}
		for hi > 0 && b.sorted[hi-1] > b.n-1-r {
			hi--
		}
		fn(r, lo, hi)
	}
}

// places numbers the diagonals' positions diagonal-major, in sorted order
// and each diagonal's rows in order: row r of sorted diagonal j is
// position at[j]+r.
func (b band) places() []int {
	at := make([]int, len(b.sorted))
	next := 0
	for j, off := range b.sorted {
		first, length := diagonalRows(b.n, off)
		at[j] = next - first
		next += length
	}
	return at
}

// diagonalRows is the first row of an n×n matrix that the diagonal at
// offset off passes through, and how many rows it covers.
func diagonalRows(n, off int) (first, length int) {
	return max(-off, 0), max(n-max(off, -off), 0)
}

// ConstantDegree returns an n×n matrix with exactly deg random distinct
// columns per row: the ideal ELL matrix (ER_ELL = 1, var_RD = 0) with no
// diagonal structure.
func ConstantDegree[T matrix.Float](n, deg int, rng *rand.Rand) *matrix.CSR[T] {
	if deg > n {
		deg = n
	}
	m := newCSR[T](n, n, n*deg)
	sampler := newDistinct(n)
	for r := 0; r < n; r++ {
		for _, c := range sampler.drawDistinct(deg, rng) {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, value[T](rng))
		}
		m.RowPtr[r+1] = len(m.Vals)
	}
	return m
}

// NearConstantDegree is ConstantDegree with per-row degree jitter of ±jitter
// (sweeps var_RD and ER_ELL just below the ideal).
func NearConstantDegree[T matrix.Float](n, deg, jitter int, rng *rand.Rand) *matrix.CSR[T] {
	most := min(max(deg+max(jitter, 0), 1), n)
	m := newCSR[T](n, n, n*most)
	sampler := newDistinct(n)
	for r := 0; r < n; r++ {
		d := deg
		if jitter > 0 {
			d += rng.Intn(2*jitter+1) - jitter
		}
		if d < 1 {
			d = 1
		}
		if d > n {
			d = n
		}
		for _, c := range sampler.drawDistinct(d, rng) {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, value[T](rng))
		}
		m.RowPtr[r+1] = len(m.Vals)
	}
	return m
}

// RandomUniform returns a rows×cols matrix where every position is occupied
// independently with the probability that yields ≈nnzPerRow nonzeros per row
// on average: an irregular, unstructured (CSR-leaning) matrix.
func RandomUniform[T matrix.Float](rows, cols int, nnzPerRow float64, rng *rand.Rand) *matrix.CSR[T] {
	// A row's degree is at most 4 · 1.75 · nnzPerRow (a heavy row at the top
	// of the draw) and averages at most 1.15 · nnzPerRow + 1 (the draw's mean
	// nnzPerRow, one row in 20 at four times it, and the clamp to one).
	most := min(max(int(7*nnzPerRow), 1), cols)
	m := newCSR[T](rows, cols, sizeHint(rows, 1.15*nnzPerRow+1, most))
	sampler := newDistinct(cols)
	for r := 0; r < rows; r++ {
		// Draw the row degree from a geometric-ish mixture for irregularity.
		d := int(nnzPerRow * (0.25 + 1.5*rng.Float64()))
		if rng.Float64() < 0.05 {
			d *= 4 // occasional heavy row
		}
		if d < 1 {
			d = 1
		}
		if d > cols {
			d = cols
		}
		for _, c := range sampler.sampleDistinct(d, rng) {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, value[T](rng))
		}
		m.RowPtr[r+1] = len(m.Vals)
	}
	return m
}

// BlockDiagonal returns a matrix of nBlocks dense blockSize×blockSize blocks
// along the diagonal (circuit/chemistry-like local coupling).
func BlockDiagonal[T matrix.Float](nBlocks, blockSize int, rng *rand.Rand) *matrix.CSR[T] {
	n := nBlocks * blockSize
	m := newCSR[T](n, n, n*blockSize)
	for b := 0; b < nBlocks; b++ {
		base := b * blockSize
		for i := 0; i < blockSize; i++ {
			for j := 0; j < blockSize; j++ {
				m.ColIdx = append(m.ColIdx, base+j)
				m.Vals = append(m.Vals, value[T](rng))
			}
			m.RowPtr[base+i+1] = len(m.Vals)
		}
	}
	return m
}

// newCSR returns an empty rows×cols matrix whose ColIdx and Vals have room
// for capacity entries, for a generator that appends its rows in order.
func newCSR[T matrix.Float](rows, cols, capacity int) *matrix.CSR[T] {
	return &matrix.CSR[T]{
		Rows: rows, Cols: cols, RowPtr: make([]int, rows+1),
		ColIdx: make([]int, 0, capacity), Vals: make([]T, 0, capacity),
	}
}

// diagonalLength is how many positions of an n×n matrix the diagonals at
// offsets cover.
func diagonalLength(n int, offsets []int) int {
	total := 0
	for _, off := range offsets {
		_, length := diagonalRows(n, off)
		total += length
	}
	return total
}

// sizeHint is the capacity to preallocate for what n independent draws
// append when each appends between 0 and most entries, mean at most mean:
// four of the largest possible standard deviations (most/2 a draw) above
// the expected total, and never more than n·most. A run that appends more
// grows the slice as append does.
func sizeHint(n int, mean float64, most int) int {
	spread := 2 * math.Sqrt(float64(n)) * float64(most)
	return min(n*most, int(float64(n)*mean+spread))
}

// distinct draws sorted samples of distinct values from [0, n). Membership
// is one bit of set, and every bit is clear between draws. It is scratch of
// the generator call that made it, never shared between goroutines.
type distinct struct {
	n      int
	set    []uint64
	sample []int
}

func newDistinct(n int) *distinct {
	return &distinct{n: n, set: make([]uint64, (n+63)/64)}
}

// scanWords is how many words of the bitset a draw may cost the scan that
// reads the sample off it in order; past that, sorting the k drawn values is
// cheaper.
const scanWords = 8

// drawDistinct draws k distinct values, k ≤ n, and returns them sorted in a
// slice the next draw reuses. A draw equal to one already taken is rejected
// and drawn again. While the bitset is at most scanWords words a draw, the
// sample is read off it in order by a scan that clears its words; past that
// the drawn values are kept as they come, sorted in O(k log k), and their
// words cleared. In the dense regime the sort loses to the scan on constant
// factors, not on order (DESIGN §2).
func (s *distinct) drawDistinct(k int, rng *rand.Rand) []int {
	set, n, dst := s.set, s.n, s.sample[:0]
	if len(set) <= scanWords*k {
		for left := k; left > 0; {
			c := rng.Intn(n)
			if w, bit := c>>6, uint64(1)<<(c&63); set[w]&bit == 0 {
				set[w] |= bit
				left--
			}
		}
		dst = slices.Grow(dst, k)[:k]
		i := 0
		for w, word := range set {
			set[w] = 0
			for ; word != 0; word &= word - 1 {
				dst[i] = w<<6 | bits.TrailingZeros64(word)
				i++
			}
		}
	} else {
		for len(dst) < k {
			c := rng.Intn(n)
			if w, bit := c>>6, uint64(1)<<(c&63); set[w]&bit == 0 {
				set[w] |= bit
				dst = append(dst, c)
			}
		}
		for _, c := range dst {
			set[c>>6] = 0
		}
		slices.Sort(dst)
	}
	s.sample = dst
	return dst
}

// sampleDistinct is drawDistinct for any k: when k ≥ n it returns all of
// [0, n) and draws nothing.
func (s *distinct) sampleDistinct(k int, rng *rand.Rand) []int {
	if k < s.n {
		return s.drawDistinct(k, rng)
	}
	dst := s.sample[:0]
	for i := 0; i < s.n; i++ {
		dst = append(dst, i)
	}
	s.sample = dst
	return dst
}
