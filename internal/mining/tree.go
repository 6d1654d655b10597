package mining

import (
	"fmt"
	"math"
	"sort"
)

// TreeConfig controls tree induction.
type TreeConfig struct {
	// MinLeaf is the minimum number of examples on each side of a split
	// (default 2).
	MinLeaf int
	// MaxDepth bounds tree depth; 0 means unlimited.
	MaxDepth int
	// PruneCF is the confidence level of pessimistic error pruning in (0, 1);
	// smaller prunes harder. 0 selects the C4.5 default 0.25; negative
	// disables pruning.
	PruneCF float64
	// AttrWeights, when set, holds one weight per attribute that scales its
	// gain ratio in split selection (nil: all 1): an attribute that costs
	// more to compute wins a split only by being that much more informative.
	AttrWeights []float64
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.PruneCF == 0 {
		c.PruneCF = 0.25
	}
	return c
}

// Tree is a binary decision tree over continuous attributes. Internal nodes
// test attr ≤ threshold (left) versus attr > threshold (right).
type Tree struct {
	AttrNames  []string
	ClassNames []string
	root       *node
}

type node struct {
	// counts holds per-class training counts reaching this node.
	counts []int
	class  int // majority class

	// Internal nodes only.
	attr      int
	threshold float64
	left      *node
	right     *node
}

func (n *node) isLeaf() bool { return n.left == nil }

// BuildTree induces a decision tree from the dataset with C4.5-style
// gain-ratio splits and pessimistic pruning.
func BuildTree(ds *Dataset, cfg TreeConfig) (*Tree, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.AttrWeights != nil && len(cfg.AttrWeights) != len(ds.AttrNames) {
		return nil, fmt.Errorf("mining: %d attribute weights for %d attributes", len(cfg.AttrWeights), len(ds.AttrNames))
	}
	idx := make([]int, len(ds.Examples))
	for i := range idx {
		idx[i] = i
	}
	root := grow(ds, idx, cfg, 0)
	if cfg.PruneCF > 0 {
		prune(root, cfg.PruneCF)
	}
	return &Tree{
		AttrNames:  append([]string(nil), ds.AttrNames...),
		ClassNames: append([]string(nil), ds.ClassNames...),
		root:       root,
	}, nil
}

func grow(ds *Dataset, idx []int, cfg TreeConfig, depth int) *node {
	counts := ds.classCounts(idx)
	class, count := majority(counts)
	n := &node{counts: counts, class: class}
	if count == len(idx) || len(idx) < 2*cfg.MinLeaf {
		return n
	}
	if cfg.MaxDepth > 0 && depth >= cfg.MaxDepth {
		return n
	}
	attr, threshold, ok := bestSplit(ds, idx, counts, cfg)
	if !ok {
		return n
	}
	var left, right []int
	for _, i := range idx {
		if ds.Examples[i].Attrs[attr] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	n.attr = attr
	n.threshold = threshold
	n.left = grow(ds, left, cfg, depth+1)
	n.right = grow(ds, right, cfg, depth+1)
	return n
}

// entropy returns the Shannon entropy (bits) of a class-count vector.
func entropy(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

// bestSplit finds the (attribute, threshold) pair with the highest gain
// ratio, weighted by cfg.AttrWeights, among splits with positive information
// gain, considering candidate thresholds midway between consecutive distinct
// attribute values.
func bestSplit(ds *Dataset, idx []int, counts []int, cfg TreeConfig) (attr int, threshold float64, ok bool) {
	minLeaf := cfg.MinLeaf
	total := len(idx)
	baseH := entropy(counts, total)
	bestRatio := 0.0
	// Reusable buffers.
	order := make([]int, len(idx))
	leftCounts := make([]int, len(counts))

	for a := 0; a < len(ds.AttrNames); a++ {
		copy(order, idx)
		sort.Slice(order, func(i, j int) bool {
			return ds.Examples[order[i]].Attrs[a] < ds.Examples[order[j]].Attrs[a]
		})
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		nLeft := 0
		for i := 0; i < len(order)-1; i++ {
			ex := ds.Examples[order[i]]
			leftCounts[ex.Label]++
			nLeft++
			v := ex.Attrs[a]
			next := ds.Examples[order[i+1]].Attrs[a]
			if v == next {
				continue // not a boundary between distinct values
			}
			if nLeft < minLeaf || total-nLeft < minLeaf {
				continue
			}
			// Information gain of the candidate split.
			hLeft := entropy(leftCounts, nLeft)
			rightCounts := make([]int, len(counts))
			for c := range counts {
				rightCounts[c] = counts[c] - leftCounts[c]
			}
			hRight := entropy(rightCounts, total-nLeft)
			pL := float64(nLeft) / float64(total)
			gain := baseH - pL*hLeft - (1-pL)*hRight
			if gain <= 1e-12 {
				continue
			}
			splitInfo := -pL*math.Log2(pL) - (1-pL)*math.Log2(1-pL)
			if splitInfo <= 0 {
				continue
			}
			ratio := gain / splitInfo
			if cfg.AttrWeights != nil {
				ratio *= cfg.AttrWeights[a]
			}
			if ratio > bestRatio {
				bestRatio = ratio
				attr = a
				threshold = midpoint(v, next)
				ok = true
			}
		}
	}
	return attr, threshold, ok
}

// midpoint returns a threshold strictly between a and b (a < b), robust to
// the huge magnitudes of the RNone sentinel.
func midpoint(a, b float64) float64 {
	m := a + (b-a)/2
	if m <= a {
		return a
	}
	return m
}

// Predict returns the predicted class index for an attribute vector.
func (t *Tree) Predict(attrs []float64) int {
	n := t.root
	for !n.isLeaf() {
		if attrs[n.attr] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.class
}

// Size returns the total number of nodes in the tree.
func (t *Tree) Size() int { return t.root.size() }

func (n *node) size() int {
	if n.isLeaf() {
		return 1
	}
	return 1 + n.left.size() + n.right.size()
}

// Accuracy returns the fraction of examples the tree classifies correctly.
func (t *Tree) Accuracy(ds *Dataset) float64 {
	if len(ds.Examples) == 0 {
		return 0
	}
	correct := 0
	for _, ex := range ds.Examples {
		if t.Predict(ex.Attrs) == ex.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.Examples))
}
