package amg

import "math/rand"

// Coarsening selects the coarse-grid point-selection algorithm.
type Coarsening int

const (
	// RugeStueben is the classical sequential first-pass coarsening (the
	// paper's "rugeL" configuration).
	RugeStueben Coarsening = iota
	// CLJP is the Cleary–Luby–Jones–Plassmann independent-set coarsening
	// (the paper's "cljp" configuration).
	CLJP
)

func (c Coarsening) String() string {
	if c == CLJP {
		return "cljp"
	}
	return "rugeL"
}

// point classification.
const (
	unassigned int8 = iota
	cPoint
	fPoint
)

// lambdaItem is a lazy max-heap entry for Ruge–Stüben selection.
type lambdaItem struct {
	lambda int
	point  int
}

// lambdaHeap is a max-heap of lambdaItems on lambda. init, push and pop
// sift exactly as container/heap does — same comparisons, same swaps — so
// ties between equal measures break as they always have and the C/F split
// is the one coarsenRSReference (the container/heap version, kept in the
// tests) produces. What the typed heap drops is the boxing: container/heap
// moves items through interface{}, one allocation per push and per pop,
// which was most of a set-up's time.
type lambdaHeap []lambdaItem

func (h lambdaHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *lambdaHeap) push(it lambdaItem) {
	*h = append(*h, it)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(s[j].lambda > s[i].lambda) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *lambdaHeap) pop() lambdaItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

func (h lambdaHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].lambda > h[j].lambda {
			j = j2
		}
		if !(h[j].lambda > h[i].lambda) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// coarsenRS runs classical Ruge–Stüben first-pass coarsening: repeatedly
// promote the unassigned point with the largest measure λ_i = |S_i^T| to a
// C-point, make the points that strongly depend on it F-points, and raise
// the measure of those F-points' remaining strong dependencies.
func coarsenRS(g *strengthGraph) []int8 {
	n := g.n
	split := make([]int8, n)
	lambda := make([]int, n)
	h := make(lambdaHeap, 0, n)
	for i := 0; i < n; i++ {
		lambda[i] = g.stPtr[i+1] - g.stPtr[i]
		h = append(h, lambdaItem{lambda[i], i})
	}
	h.init()
	assigned := 0
	for assigned < n && len(h) > 0 {
		it := h.pop()
		i := it.point
		if split[i] != unassigned || it.lambda != lambda[i] {
			continue // stale entry
		}
		if lambda[i] == 0 {
			// No remaining influence: isolated or fully surrounded by
			// assigned points. Such points smooth well on the fine grid.
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
					h.push(lambdaItem{lambda[k], k})
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

// coarsenCLJP runs Cleary–Luby–Jones–Plassmann coarsening. Weights are
// w(i) = |S_i^T| + rand(0,1); each round the local maxima over the live
// strong-connection graph become C-points and the two CLJP heuristics remove
// edges and decrement weights:
//
//	H1: points that influence a new C-point are less valuable as C-points
//	    themselves (the C-point will not be interpolated);
//	H2: if j and k both strongly depend on a new C-point c and j also
//	    influences k, then k can be interpolated from c instead of j, so j
//	    loses that dependent.
//
// Points whose weight drops below one become F-points. The random
// tie-breaking yields the more uniform splittings that distinguish the
// paper's "cljp" configuration from "rugeL".
func coarsenCLJP(g *strengthGraph, seed int64) []int8 {
	n := g.n
	rng := rand.New(rand.NewSource(seed))
	split := make([]int8, n)
	w := make([]float64, n)

	// Live edge sets: dep[i] = points i strongly depends on; infl[i] =
	// points that strongly depend on i. Both shrink as points resolve.
	dep := make([]map[int]struct{}, n)
	infl := make([]map[int]struct{}, n)
	remaining := 0
	for i := 0; i < n; i++ {
		nDeps := g.sPtr[i+1] - g.sPtr[i]
		nInfl := g.stPtr[i+1] - g.stPtr[i]
		if nDeps == 0 && nInfl == 0 {
			split[i] = fPoint // isolated
			continue
		}
		dep[i] = make(map[int]struct{}, nDeps)
		for _, j := range g.strongDeps(i) {
			dep[i][j] = struct{}{}
		}
		infl[i] = make(map[int]struct{}, nInfl)
		for _, j := range g.strongInfluenced(i) {
			infl[i][j] = struct{}{}
		}
		w[i] = float64(nInfl) + rng.Float64()
		remaining++
	}

	markF := func(i int) {
		split[i] = fPoint
		remaining--
		for j := range dep[i] {
			delete(infl[j], i)
		}
		for j := range infl[i] {
			delete(dep[j], i)
		}
		dep[i], infl[i] = nil, nil
	}

	for remaining > 0 {
		// Select local maxima over live edges.
		var selected []int
		for i := 0; i < n; i++ {
			if split[i] != unassigned {
				continue
			}
			isMax := true
			for j := range dep[i] {
				if w[j] >= w[i] {
					isMax = false
					break
				}
			}
			if isMax {
				for j := range infl[i] {
					if w[j] >= w[i] {
						isMax = false
						break
					}
				}
			}
			if isMax {
				selected = append(selected, i)
			}
		}
		if len(selected) == 0 {
			// Guard against exact weight ties: resolve the global maximum.
			best, bw := -1, -1.0
			for i := 0; i < n; i++ {
				if split[i] == unassigned && w[i] > bw {
					best, bw = i, w[i]
				}
			}
			selected = append(selected, best)
		}
		for _, c := range selected {
			split[c] = cPoint
			remaining--
			// H1: points influencing c lose value.
			for j := range dep[c] {
				w[j]--
				delete(infl[j], c)
			}
			dep[c] = nil
			// H2: dependents of c stop needing each other.
			depOnC := infl[c]
			infl[c] = nil
			for j := range depOnC {
				delete(dep[j], c)
			}
			for j := range depOnC {
				for k := range infl[j] {
					if _, also := depOnC[k]; also {
						w[j]--
						delete(dep[k], j)
						delete(infl[j], k)
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			if split[i] == unassigned && w[i] < 1 {
				markF(i)
			}
		}
	}
	return split
}

// enforceInterpolatable promotes F-points that have strong dependencies but
// no strong C-neighbour to C-points, guaranteeing direct interpolation is
// well defined everywhere.
func enforceInterpolatable(g *strengthGraph, split []int8) {
	for i := 0; i < g.n; i++ {
		if split[i] != fPoint {
			continue
		}
		deps := g.strongDeps(i)
		if len(deps) == 0 {
			continue // truly isolated; interpolated by zero
		}
		hasC := false
		for _, j := range deps {
			if split[j] == cPoint {
				hasC = true
				break
			}
		}
		if !hasC {
			split[i] = cPoint
		}
	}
}
