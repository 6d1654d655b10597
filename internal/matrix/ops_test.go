package matrix

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTransposeTwiceIsIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randCSR(r, 1+r.Intn(25), 1+r.Intn(25), 0.25)
		return m.Equal(m.Transpose().Transpose())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randCSR(rng, 11, 17, 0.3)
	mt := m.Transpose()
	if err := mt.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c) != mt.At(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestSpGEMMAgainstDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n, k, p := 1+r.Intn(15), 1+r.Intn(15), 1+r.Intn(15)
		a := randCSR(r, n, k, 0.3)
		b := randCSR(r, k, p, 0.3)
		got := a.Mul(b)
		if err := got.Validate(); err != nil {
			t.Logf("invalid SpGEMM result: %v", err)
			return false
		}
		want := a.ToDense().Mul(b.ToDense())
		for row := 0; row < n; row++ {
			for col := 0; col < p; col++ {
				g := float64(got.At(row, col))
				w := float64(want.At(row, col))
				if diff := g - w; diff > 1e-9 || diff < -1e-9 {
					t.Logf("mismatch at (%d,%d): %g vs %g (seed %d)", row, col, g, w, seed)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randCSR(rng, 10, 10, 0.3)
	id := Identity[float64](10)
	if !m.Mul(id).Equal(m) {
		t.Error("A*I != A")
	}
	if !id.Mul(m).Equal(m) {
		t.Error("I*A != A")
	}
}

func TestMulDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Mul with mismatched dims did not panic")
		}
	}()
	a := Identity[float64](3)
	b := Identity[float64](4)
	a.Mul(b)
}

func TestAddAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randCSR(rng, 12, 8, 0.3)
	b := randCSR(rng, 12, 8, 0.3)
	sum := a.Add(b)
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 12; r++ {
		for c := 0; c < 8; c++ {
			want := a.At(r, c) + b.At(r, c)
			if got := sum.At(r, c); got != want {
				t.Fatalf("Add mismatch at (%d,%d): %g vs %g", r, c, got, want)
			}
		}
	}
}

func TestAddCancellationDropsZeros(t *testing.T) {
	a := mustCSR(t, 2, 2, []Triple[float64]{{0, 0, 2}, {1, 1, 3}})
	b := mustCSR(t, 2, 2, []Triple[float64]{{0, 0, -2}, {1, 0, 1}})
	sum := a.Add(b)
	if sum.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (cancelled entry dropped)", sum.NNZ())
	}
	if sum.At(0, 0) != 0 || sum.At(1, 1) != 3 || sum.At(1, 0) != 1 {
		t.Error("Add cancellation produced wrong values")
	}
}

func TestTripleProductAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Shapes as in AMG: R is coarse×fine, A is fine×fine, P is fine×coarse.
	fine, coarse := 14, 6
	a := randCSR(rng, fine, fine, 0.3)
	p := randCSR(rng, fine, coarse, 0.3)
	r := p.Transpose()
	got := TripleProduct(r, a, p)
	want := r.ToDense().Mul(a.ToDense()).Mul(p.ToDense())
	for i := 0; i < coarse; i++ {
		for j := 0; j < coarse; j++ {
			g, w := float64(got.At(i, j)), float64(want.At(i, j))
			if diff := g - w; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("RAP mismatch at (%d,%d): %g vs %g", i, j, g, w)
			}
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := paperCSR(t)
	want := []float64{1, 2, 3, 4}
	for i, w := range want {
		if got := m.Diagonal()[i]; got != w {
			t.Errorf("Diagonal[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestScale(t *testing.T) {
	m := paperCSR(t)
	m.Scale(2)
	if m.At(2, 3) != 14 {
		t.Errorf("Scale: At(2,3) = %g, want 14", m.At(2, 3))
	}
}

func TestSortHelpersProperty(t *testing.T) {
	f := func(a []int) bool {
		mine := append([]int(nil), a...)
		ref := append([]int(nil), a...)
		insertionSortInts(mine)
		sort.Ints(ref)
		for i := range ref {
			if mine[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Exercise the quicksort path explicitly with a large reversed slice.
	big := make([]int, 1000)
	for i := range big {
		big[i] = len(big) - i
	}
	insertionSortInts(big)
	for i := 1; i < len(big); i++ {
		if big[i-1] > big[i] {
			t.Fatal("large sort produced unsorted output")
		}
	}
}

func TestIdentityStructure(t *testing.T) {
	id := Identity[float32](5)
	if err := id.Validate(); err != nil {
		t.Fatal(err)
	}
	if id.NNZ() != 5 {
		t.Fatalf("identity NNZ = %d", id.NNZ())
	}
	for i := 0; i < 5; i++ {
		if id.At(i, i) != 1 {
			t.Fatalf("identity At(%d,%d) != 1", i, i)
		}
	}
}

func TestDenseMulVec(t *testing.T) {
	d := DenseFromRows([][]float64{
		{1, 2},
		{3, 4},
	})
	x := []float64{5, 6}
	y := make([]float64, 2)
	d.MulVec(x, y)
	if y[0] != 17 || y[1] != 39 {
		t.Errorf("MulVec = %v, want [17 39]", y)
	}
}
