// Package gen builds synthetic sparse matrices whose structural features
// sweep the same axes as the paper's UF-collection training set: diagonal
// stencils (DIA territory), regular constant-degree matrices (ELL),
// power-law graphs (COO), and irregular general matrices (CSR). The corpus
// package composes these generators into the full training/evaluation
// collection.
package gen

import (
	"math"
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
// given offsets: the ideal DIA matrix (NTdiags_ratio = 1).
func MultiDiagonal[T matrix.Float](n int, offsets []int, rng *rand.Rand) *matrix.CSR[T] {
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

// ConstantDegree returns an n×n matrix with exactly deg random distinct
// columns per row: the ideal ELL matrix (ER_ELL = 1, var_RD = 0) with no
// diagonal structure.
func ConstantDegree[T matrix.Float](n, deg int, rng *rand.Rand) *matrix.CSR[T] {
	if deg > n {
		deg = n
	}
	m := newCSR[T](n, n, n*deg)
	cols := make([]int, 0, deg)
	for r := 0; r < n; r++ {
		cols = drawDistinct(cols, n, deg, rng)
		for _, c := range cols {
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
	cols := make([]int, 0, most)
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
		cols = drawDistinct(cols, n, d, rng)
		for _, c := range cols {
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
	var sample []int
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
		sample = sampleDistinct(sample, cols, d, rng)
		for _, c := range sample {
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
		total += max(n-max(off, -off), 0)
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

// drawDistinct draws k distinct values from [0, n), k ≤ n, into dst[:0] and
// returns them sorted. A draw equal to one already taken is rejected and
// drawn again. The sample is kept sorted as it grows, so the check is a
// binary search and the insertion a copy of the larger values: a linear
// scan, or a sort once the sample is drawn, is O(k²) on the rows of a few
// hundred entries that RandomUniform draws.
func drawDistinct(dst []int, n, k int, rng *rand.Rand) []int {
	dst = dst[:0]
	for len(dst) < k {
		c := rng.Intn(n)
		if i, taken := slices.BinarySearch(dst, c); !taken {
			dst = slices.Insert(dst, i, c)
		}
	}
	return dst
}

// sampleDistinct is drawDistinct for any k: when k ≥ n it returns all of
// [0, n) and draws nothing.
func sampleDistinct(dst []int, n, k int, rng *rand.Rand) []int {
	if k >= n {
		dst = dst[:0]
		for i := 0; i < n; i++ {
			dst = append(dst, i)
		}
		return dst
	}
	return drawDistinct(dst, n, k, rng)
}
