// PageRank example: the paper's graph-analytics motivation (Section 1).
//
// Power iteration on a synthetic web graph with a power-law degree
// distribution. The link matrix is exactly the structure the paper
// associates with COO affinity; SMAT detects it from the degree-distribution
// exponent R and routes the SpMV accordingly.
//
// Run: go run ./examples/pagerank
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"sort"

	"smat"
	"smat/internal/gen"
	"smat/internal/matrix"
)

func main() {
	const (
		nodes   = 50000
		damping = 0.85
		tol     = 1e-10
	)
	// A preferential-attachment web graph (power-law in/out degrees).
	adj := gen.PreferentialAttachment[float64](nodes, 3, rand.New(rand.NewSource(42)))

	// PageRank iterates r <- d·Mᵀr + (1-d)/n, with M the column-stochastic
	// link matrix: build Aᵀ row-normalised, i.e. normalise adj's rows and
	// transpose.
	norm := adj.Clone()
	for i := 0; i < norm.Rows; i++ {
		deg := float64(norm.RowPtr[i+1] - norm.RowPtr[i])
		for jj := norm.RowPtr[i]; jj < norm.RowPtr[i+1]; jj++ {
			norm.Vals[jj] = 1 / deg
		}
	}
	link := norm.Transpose()
	a := wrap(link)

	// The power iteration below runs at most 200 SpMVs: passing that bound
	// lets SMAT weigh the format-conversion cost against the remaining work
	// instead of assuming the matrix lives forever.
	tuner := smat.NewTuner[float64](smat.DefaultModel())
	op, err := tuner.Tune(a, smat.WithIterations(200))
	if err != nil {
		log.Fatal(err)
	}
	d := op.Decision()
	fmt.Printf("link matrix: %d nodes, %d edges\n", nodes, a.NNZ())
	fmt.Printf("features: R=%.2f (power-law exponent)\n", a.Features().R)
	fmt.Printf("decision: %s\n", d)

	rank := make([]float64, nodes)
	next := make([]float64, nodes)
	for i := range rank {
		rank[i] = 1.0 / nodes
	}
	iters := 0
	for ; iters < 200; iters++ {
		op.MulVec(rank, next)
		delta := 0.0
		for i := range next {
			next[i] = damping*next[i] + (1-damping)/nodes
			delta += math.Abs(next[i] - rank[i])
		}
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	fmt.Printf("converged in %d iterations\n", iters+1)

	// Top five hubs: in a preferential-attachment graph these are the
	// earliest nodes.
	type nr struct {
		node int
		r    float64
	}
	top := make([]nr, nodes)
	for i, r := range rank {
		top[i] = nr{i, r}
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	fmt.Println("top-5 nodes by PageRank:")
	for _, t := range top[:5] {
		fmt.Printf("  node %5d: %.6f\n", t.node, t.r)
	}
}

// wrap adapts an internal CSR matrix to the public handle.
func wrap(m *matrix.CSR[float64]) *smat.Matrix[float64] {
	a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err != nil {
		log.Fatal(err)
	}
	return a
}
