package gen

import (
	"math/rand"
	"slices"

	"smat/internal/matrix"
)

// PreferentialAttachment returns the adjacency matrix of an undirected
// Barabási–Albert graph on n nodes where each arriving node attaches
// edgesPerNode edges to existing nodes with probability proportional to
// their degree. The resulting degree distribution is power-law (exponent ≈3),
// the small-world structure the paper associates with COO affinity.
func PreferentialAttachment[T matrix.Float](n, edgesPerNode int, rng *rand.Rand) *matrix.CSR[T] {
	if edgesPerNode < 1 {
		edgesPerNode = 1
	}
	seed := edgesPerNode + 1
	if seed > n {
		seed = n
	}
	edges := seed*(seed-1)/2 + (n-seed)*edgesPerNode
	// repeated holds one entry per half-edge: sampling an index uniformly
	// samples a node with probability proportional to its degree.
	repeated := make([]int, 0, 2*edges)
	// ts holds each edge (a, b) as (a, b) then (b, a); the values are drawn
	// once the structure is complete.
	ts := make([]matrix.Triple[T], 0, 2*edges+1)
	addEdge := func(a, b int) {
		repeated = append(repeated, a, b)
		ts = append(ts, matrix.Triple[T]{Row: a, Col: b}, matrix.Triple[T]{Row: b, Col: a})
	}
	// Seed clique.
	for i := 0; i < seed; i++ {
		for j := i + 1; j < seed; j++ {
			addEdge(i, j)
		}
	}
	attached := make([]int, 0, edgesPerNode)
	for v := seed; v < n; v++ {
		attached = attached[:0]
		for len(attached) < edgesPerNode {
			var u int
			if len(repeated) == 0 {
				u = rng.Intn(v)
			} else {
				u = repeated[rng.Intn(len(repeated))]
			}
			if u == v || slices.Contains(attached, u) {
				continue
			}
			attached = append(attached, u)
			addEdge(v, u)
		}
	}
	for k := 0; k < len(ts); k += 2 {
		v := value[T](rng)
		ts[k].Val, ts[k+1].Val = v, v
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// RMAT returns the adjacency matrix of a recursive-matrix (R-MAT) graph with
// 2^scale nodes and ≈edgeFactor·2^scale directed edges using the standard
// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) quadrant probabilities. R-MAT
// graphs have skewed, power-law-like degree distributions (web/social
// graphs).
func RMAT[T matrix.Float](scale, edgeFactor int, rng *rand.Rand) *matrix.CSR[T] {
	n := 1 << scale
	nEdges := edgeFactor * n
	const a, b, c = 0.57, 0.19, 0.19
	ts := make([]matrix.Triple[T], 0, max(nEdges, 0)+1)
	for e := 0; e < nEdges; e++ {
		row, col := 0, 0
		for bit := n >> 1; bit >= 1; bit >>= 1 {
			p := rng.Float64()
			switch {
			case p < a:
				// top-left: nothing to add
			case p < a+b:
				col += bit
			case p < a+b+c:
				row += bit
			default:
				row += bit
				col += bit
			}
		}
		ts = append(ts, matrix.Triple[T]{Row: row, Col: col, Val: value[T](rng)})
	}
	// Guarantee no empty matrix even for tiny scales.
	ts = append(ts, matrix.Triple[T]{Row: 0, Col: 0, Val: 1})
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// RoadNetwork returns the adjacency matrix of a degree-bounded random planar-
// ish graph: nodes connect to a handful of near neighbours by index, the
// structure of road networks (very low, nearly uniform degree, huge
// diameter) such as the paper's roadNet-CA and europe_osm representatives.
func RoadNetwork[T matrix.Float](n int, rng *rand.Rand) *matrix.CSR[T] {
	// A node draws 1–3 edges, two triples each.
	ts := make([]matrix.Triple[T], 0, sizeHint(max(n, 0), 4, 6)+1)
	for v := 0; v < n; v++ {
		deg := 1 + rng.Intn(3)
		for d := 0; d < deg; d++ {
			// Neighbours are close in index, as in a geometric embedding.
			off := 1 + rng.Intn(8)
			u := v + off
			if u >= n {
				u = v - off
			}
			if u < 0 || u == v {
				continue
			}
			val := value[T](rng)
			ts = append(ts, matrix.Triple[T]{Row: v, Col: u, Val: val})
			ts = append(ts, matrix.Triple[T]{Row: u, Col: v, Val: val})
		}
	}
	ts = append(ts, matrix.Triple[T]{Row: 0, Col: 0, Val: 1})
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		panic(err)
	}
	return m
}

// BipartiteIncidence returns a rows×cols incidence-like matrix with a fixed
// small number of entries per row at random columns (the paper's
// combinatorial matrices such as ch7-9-b3 and shar_te2-b2 are of this kind:
// rectangular, constant row degree).
func BipartiteIncidence[T matrix.Float](rows, cols, deg int, rng *rand.Rand) *matrix.CSR[T] {
	m := newCSR[T](rows, cols, rows*min(deg, cols))
	sampler := newDistinct(cols)
	for r := 0; r < rows; r++ {
		for _, c := range sampler.sampleDistinct(deg, rng) {
			m.ColIdx = append(m.ColIdx, c)
			m.Vals = append(m.Vals, value[T](rng))
		}
		m.RowPtr[r+1] = len(m.Vals)
	}
	return m
}
