package mining

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// thresholdDataset builds a dataset whose label is a deterministic function
// of two attributes with axis-aligned boundaries (learnable exactly by a
// depth-2 tree), optionally with label noise.
func thresholdDataset(n int, noise float64, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{
		AttrNames:  []string{"x0", "x1"},
		ClassNames: []string{"A", "B", "C"},
	}
	for i := 0; i < n; i++ {
		x0, x1 := rng.Float64(), rng.Float64()
		label := 0
		if x0 > 0.3 {
			if x1 > 0.6 {
				label = 1
			} else {
				label = 2
			}
		}
		if rng.Float64() < noise {
			label = rng.Intn(3)
		}
		ds.Examples = append(ds.Examples, Example{Attrs: []float64{x0, x1}, Label: label})
	}
	return ds
}

func TestEntropy(t *testing.T) {
	if got := entropy([]int{5, 5}, 10); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("entropy(5,5) = %g, want 1", got)
	}
	if got := entropy([]int{10, 0}, 10); got != 0 {
		t.Errorf("entropy(10,0) = %g, want 0", got)
	}
	if got := entropy([]int{1, 1, 1, 1}, 4); math.Abs(got-2.0) > 1e-12 {
		t.Errorf("entropy uniform 4 classes = %g, want 2", got)
	}
	if got := entropy(nil, 0); got != 0 {
		t.Errorf("entropy of empty = %g, want 0", got)
	}
}

func TestBuildTreeSeparableData(t *testing.T) {
	ds := thresholdDataset(400, 0, 1)
	tree, err := BuildTree(ds, TreeConfig{PruneCF: -1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ds); acc != 1.0 {
		t.Errorf("accuracy on separable data = %g, want 1.0", acc)
	}
	// A binary tree of size s has (s+1)/2 leaves.
	if leaves := (tree.Size() + 1) / 2; leaves > 6 {
		t.Errorf("tree has %d leaves for a 3-region concept", leaves)
	}
}

func TestBuildTreeRecoversThresholds(t *testing.T) {
	ds := thresholdDataset(2000, 0, 2)
	tree, err := BuildTree(ds, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.root
	if root.isLeaf() {
		t.Fatal("root is a leaf")
	}
	if root.attr != 0 {
		t.Fatalf("root splits on attr %d, want 0 (x0)", root.attr)
	}
	if math.Abs(root.threshold-0.3) > 0.05 {
		t.Errorf("root threshold = %g, want ≈0.3", root.threshold)
	}
}

func TestBuildTreeSingleClass(t *testing.T) {
	ds := &Dataset{
		AttrNames:  []string{"x"},
		ClassNames: []string{"only"},
	}
	for i := 0; i < 10; i++ {
		ds.Examples = append(ds.Examples, Example{Attrs: []float64{float64(i)}, Label: 0})
	}
	tree, err := BuildTree(ds, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() != 1 {
		t.Errorf("single-class tree size = %d, want 1", tree.Size())
	}
	if tree.Predict([]float64{3}) != 0 {
		t.Error("wrong prediction")
	}
}

func TestBuildTreeRespectsMaxDepth(t *testing.T) {
	ds := thresholdDataset(500, 0, 3)
	tree, err := BuildTree(ds, TreeConfig{MaxDepth: 1, PruneCF: -1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Size() > 3 {
		t.Errorf("depth-1 tree has %d nodes, want ≤3", tree.Size())
	}
}

func TestBuildTreeValidatesDataset(t *testing.T) {
	bad := &Dataset{
		AttrNames:  []string{"x"},
		ClassNames: []string{"A"},
		Examples:   []Example{{Attrs: []float64{1, 2}, Label: 0}},
	}
	if _, err := BuildTree(bad, TreeConfig{}); err == nil {
		t.Error("BuildTree accepted wrong-arity example")
	}
	bad2 := &Dataset{
		AttrNames:  []string{"x"},
		ClassNames: []string{"A"},
		Examples:   []Example{{Attrs: []float64{1}, Label: 5}},
	}
	if _, err := BuildTree(bad2, TreeConfig{}); err == nil {
		t.Error("BuildTree accepted out-of-range label")
	}
}

func TestPruningShrinksNoisyTree(t *testing.T) {
	ds := thresholdDataset(800, 0.15, 4)
	unpruned, err := BuildTree(ds, TreeConfig{PruneCF: -1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := BuildTree(ds, TreeConfig{PruneCF: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Size() >= unpruned.Size() {
		t.Errorf("pruned size %d ≥ unpruned size %d", pruned.Size(), unpruned.Size())
	}
	// The pruned tree should still generalize: evaluate on clean data.
	clean := thresholdDataset(500, 0, 5)
	if acc := pruned.Accuracy(clean); acc < 0.9 {
		t.Errorf("pruned tree clean accuracy = %g, want ≥0.9", acc)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.75, 0.6745},
		{0.975, 1.9600},
		{0.01, -2.3263},
	}
	for _, c := range cases {
		if got := normalQuantile(c.p); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("normalQuantile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsInf(normalQuantile(0), -1) || !math.IsInf(normalQuantile(1), 1) {
		t.Error("normalQuantile boundary values wrong")
	}
}

func TestPessimisticErrors(t *testing.T) {
	// Estimate is at least the observed error count and grows with it.
	if got := pessimisticErrors(0, 10, 0.25); got <= 0 {
		t.Errorf("zero observed errors should still estimate > 0, got %g", got)
	}
	lo := pessimisticErrors(1, 20, 0.25)
	hi := pessimisticErrors(5, 20, 0.25)
	if lo >= hi {
		t.Errorf("estimate not monotone in errors: %g vs %g", lo, hi)
	}
	if hi < 5 {
		t.Errorf("upper bound %g below observed 5", hi)
	}
	if pessimisticErrors(0, 0, 0.25) != 0 {
		t.Error("empty node should estimate 0")
	}
}

func TestPredictDeterministicProperty(t *testing.T) {
	ds := thresholdDataset(300, 0.05, 6)
	tree, err := BuildTree(ds, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(x0, x1 float64) bool {
		a := []float64{math.Abs(x0), math.Abs(x1)}
		c := tree.Predict(a)
		return c >= 0 && c < 3 && c == tree.Predict(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMidpoint(t *testing.T) {
	if m := midpoint(1, 2); m <= 1 || m >= 2 {
		t.Errorf("midpoint(1,2) = %g", m)
	}
	// Huge sentinel magnitudes must not overflow to +Inf.
	if m := midpoint(3, 1e9); math.IsInf(m, 0) || m <= 3 || m > 1e9 {
		t.Errorf("midpoint(3,1e9) = %g", m)
	}
	// Degenerate: values so close the midpoint rounds to a — fall back to a.
	a := 1.0
	b := math.Nextafter(a, 2)
	if m := midpoint(a, b); m != a {
		t.Errorf("midpoint of adjacent floats = %g, want %g", m, a)
	}
}
