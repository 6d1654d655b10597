package amg

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// refHeap is the container/heap max-heap coarsenRS used before its typed
// heap: the reference the typed heap's sift order is pinned against.
type refHeap []lambdaItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].lambda > h[j].lambda }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(lambdaItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// coarsenRSReference is coarsenRS as it was over container/heap, frozen.
func coarsenRSReference(g *strengthGraph) []int8 {
	n := g.n
	split := make([]int8, n)
	lambda := make([]int, n)
	h := make(refHeap, 0, n)
	for i := 0; i < n; i++ {
		lambda[i] = g.stPtr[i+1] - g.stPtr[i]
		h = append(h, lambdaItem{lambda[i], i})
	}
	heap.Init(&h)
	assigned := 0
	for assigned < n && h.Len() > 0 {
		it := heap.Pop(&h).(lambdaItem)
		i := it.point
		if split[i] != unassigned || it.lambda != lambda[i] {
			continue // stale entry
		}
		if lambda[i] == 0 {
			split[i] = fPoint
			assigned++
			continue
		}
		split[i] = cPoint
		assigned++
		for _, j := range g.strongInfluenced(i) {
			if split[j] != unassigned {
				continue
			}
			split[j] = fPoint
			assigned++
			for _, k := range g.strongDeps(j) {
				if split[k] == unassigned {
					lambda[k]++
					heap.Push(&h, lambdaItem{lambda[k], k})
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if split[i] == unassigned {
			split[i] = fPoint
		}
	}
	return split
}

// truncateRowReference is truncateRow as it was over sort.Slice, frozen.
func truncateRowReference(row []pEntry, maxEntries int) []pEntry {
	if maxEntries <= 0 || len(row) <= maxEntries {
		sort.Slice(row, func(i, j int) bool { return row[i].col < row[j].col })
		return row
	}
	before := 0.0
	for _, e := range row {
		before += e.w
	}
	sort.Slice(row, func(i, j int) bool { return math.Abs(row[i].w) > math.Abs(row[j].w) })
	row = row[:maxEntries]
	after := 0.0
	for _, e := range row {
		after += e.w
	}
	if after != 0 {
		scale := before / after
		for i := range row {
			row[i].w *= scale
		}
	}
	sort.Slice(row, func(i, j int) bool { return row[i].col < row[j].col })
	return row
}

// setupReferenceMatrices are the operators the set-up's frozen references
// are compared on: the three Laplacian stencils and two irregular
// generators (the strength graph only looks at negative couplings, so the
// irregular ones are made diagonally dominant M-matrices first).
func setupReferenceMatrices() map[string]*matrix.CSR[float64] {
	return map[string]*matrix.CSR[float64]{
		"lap2d5":     gen.Laplacian2D5pt[float64](48, 48),
		"lap2d9":     gen.Laplacian2D9pt[float64](40, 40),
		"lap3d7":     gen.Laplacian3D7pt[float64](13, 13, 13),
		"prefattach": mMatrix(gen.PreferentialAttachment[float64](2500, 3, rand.New(rand.NewSource(7)))),
		"random":     mMatrix(gen.RandomUniform[float64](2000, 2000, 7, rand.New(rand.NewSource(11)))),
	}
}

// mMatrix turns a square pattern into the symmetric M-matrix on it:
// off-diagonals −1 on the symmetrised pattern, diagonal = degree + 1.
func mMatrix(a *matrix.CSR[float64]) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	seen := map[[2]int]bool{}
	deg := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for jj := a.RowPtr[i]; jj < a.RowPtr[i+1]; jj++ {
			j := a.ColIdx[jj]
			lo, hi := min(i, j), max(i, j)
			if i == j || hi >= a.Rows || seen[[2]int{lo, hi}] {
				continue
			}
			seen[[2]int{lo, hi}] = true
			ts = append(ts, matrix.Triple[float64]{Row: lo, Col: hi, Val: -1}, matrix.Triple[float64]{Row: hi, Col: lo, Val: -1})
			deg[lo]++
			deg[hi]++
		}
	}
	for i, d := range deg {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: d + 1})
	}
	m, err := matrix.FromTriples(a.Rows, a.Rows, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// TestCoarsenRSMatchesReference pins the typed heap to container/heap's
// sift order: the C/F split must be identical, point for point.
func TestCoarsenRSMatchesReference(t *testing.T) {
	for name, a := range setupReferenceMatrices() {
		g := buildStrength(a, 0.25)
		got, want := coarsenRS(g), coarsenRSReference(g)
		if !slices.Equal(got, want) {
			t.Errorf("%s: typed-heap split differs from the container/heap split", name)
		}
		nc := 0
		for _, s := range got {
			if s == cPoint {
				nc++
			}
		}
		if nc == 0 || nc == len(got) {
			t.Errorf("%s: degenerate split (%d C-points of %d): the comparison proves nothing", name, nc, len(got))
		}
	}
}

// TestTruncateRowMatchesReference pins truncateRow's sorts: rows of every
// length the set-up produces, with tied magnitudes, come out entry for
// entry as from the sort.Slice version.
func TestTruncateRowMatchesReference(t *testing.T) {
	for _, maxEntries := range []int{2, pMax} {
		for n := 0; n <= 40; n++ {
			for seed := 0; seed < 8; seed++ {
				row := make([]pEntry, n)
				for i := range row {
					// Few distinct magnitudes, both signs: ties are the case
					// an unstable sort could order differently.
					h := (i*7 + seed*13 + n) % 11
					row[i] = pEntry{col: (i*5 + seed) % (n + 1), w: float64(h%4+1) / 8 * float64(1-2*(h%2))}
				}
				want := truncateRowReference(slices.Clone(row), maxEntries)
				got := truncateRow(slices.Clone(row), maxEntries)
				if !slices.Equal(got, want) {
					t.Fatalf("max %d, n %d, seed %d: got %v, want %v", maxEntries, n, seed, got, want)
				}
			}
		}
	}
}
