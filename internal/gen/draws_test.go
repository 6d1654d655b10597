package gen

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"smat/internal/matrix"
)

// sortedInsertDraw is the sampler drawDistinct replaced: the sample kept
// sorted as it grows, a binary search and an insertion a draw.
func sortedInsertDraw(n, k int, rng *rand.Rand) []int {
	var dst []int
	for len(dst) < k {
		c := rng.Intn(n)
		if i, taken := slices.BinarySearch(dst, c); !taken {
			dst = slices.Insert(dst, i, c)
		}
	}
	return dst
}

// TestDrawDistinctMatchesSortedInsert holds the bitset sampler, in both
// its regimes, to the sorted insert: the same sample from the same draws,
// leaving the rng in the same state, draw after draw on one sampler.
func TestDrawDistinctMatchesSortedInsert(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 200, 1000, 9000, 400000} {
		for seed := int64(1); seed <= 3; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			s := newDistinct(n)
			for _, k := range []int{0, 1, 2, 3, 8, n / 64, n / 16, n / 8, n / 2, n - 1, n} {
				if k < 0 || k > n || (n > 10000 && k > 3000) {
					continue
				}
				a, b := s.drawDistinct(k, got), sortedInsertDraw(n, k, want)
				if !slices.Equal(a, b) {
					t.Fatalf("n=%d k=%d seed=%d: sample %v, want %v", n, k, seed, a, b)
				}
				if x, y := got.Int63(), want.Int63(); x != y {
					t.Fatalf("n=%d k=%d seed=%d: rng state differs after the draw", n, k, seed)
				}
			}
			for w, word := range s.set {
				if word != 0 {
					t.Fatalf("n=%d: bitset word %d left set", n, w)
				}
			}
		}
	}
}

// TestBandMatchesTriples holds the triple-free assembly of MultiDiagonal
// to its FromTriples path, bit for bit and draw for draw, on offsets in any
// order, out of range, with and without the main diagonal, repeated (which
// take the FromTriples path), in both precisions.
func TestBandMatchesTriples(t *testing.T) {
	offsetSets := [][]int{
		{}, {0}, {-1, 0, 1}, {5, -3, 0}, {0, 1, -1, 2, -2},
		{3, -2, 100, -100}, {-7, 7}, {40, -40, 0, 1}, {2, 0, 2},
	}
	for _, n := range []int{1, 2, 9, 57, 300} {
		for _, offs := range offsetSets {
			name := fmt.Sprintf("n=%d/offsets=%v", n, offs)
			checkBand[float64](t, name, n, offs)
			checkBand[float32](t, name+"/float32", n, offs)
		}
	}
}

func checkBand[T matrix.Float](t *testing.T, name string, n int, offs []int) {
	t.Helper()
	rg, rw := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
	got, want := MultiDiagonal[T](n, offs, rg), diagonalTriples[T](n, offs, rw)
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: band assembly differs from FromTriples", name)
	}
	if rg.Int63() != rw.Int63() {
		t.Fatalf("%s: rng state differs", name)
	}
}

// TestGeneratorsConcurrent builds every exported generator on four
// goroutines at once, each with its own rng, and requires the serial
// output: under -race it catches sampler or assembly scratch shared between
// calls.
func TestGeneratorsConcurrent(t *testing.T) {
	const seed = 11
	cases := goldenCases()
	want := make([]*matrix.CSR[float64], len(cases))
	for i, c := range cases {
		want[i] = c.build(0, rand.New(rand.NewSource(seed)))
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := 0; k < 4*len(cases); k++ {
				i := (k + g) % len(cases) // each goroutine starts elsewhere
				if m := cases[i].build(0, rand.New(rand.NewSource(seed))); !m.Equal(want[i]) {
					t.Errorf("goroutine %d: %s differs from its serial build", g, cases[i].name)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
