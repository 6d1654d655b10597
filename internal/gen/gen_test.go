package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"smat/internal/features"
	"smat/internal/matrix"
)

func validate(t *testing.T, m *matrix.CSR[float64]) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("generator produced invalid matrix: %v", err)
	}
}

// isSymmetric allows ULP-level asymmetry: generators that emit duplicate
// symmetric edges may accumulate (u,v) and (v,u) in different orders.
func isSymmetric(m *matrix.CSR[float64]) bool {
	return m.ApproxEqual(m.Transpose(), 1e-12)
}

func TestLaplacian2D5pt(t *testing.T) {
	m := Laplacian2D5pt[float64](7, 5)
	validate(t, m)
	if m.Rows != 35 || m.Cols != 35 {
		t.Fatalf("dims = %dx%d, want 35x35", m.Rows, m.Cols)
	}
	if !isSymmetric(m) {
		t.Error("5-point Laplacian not symmetric")
	}
	// Interior row: 4 on the diagonal, four -1 neighbours, zero row sum.
	r := 2*7 + 3 // grid point (3,2), interior
	if m.At(r, r) != 4 {
		t.Errorf("diagonal = %g, want 4", m.At(r, r))
	}
	sum := 0.0
	for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
		sum += m.Vals[jj]
	}
	if sum != 0 {
		t.Errorf("interior row sum = %g, want 0", sum)
	}
	if m.RowDegree(r) != 5 {
		t.Errorf("interior row degree = %d, want 5", m.RowDegree(r))
	}
	// The 5-point stencil occupies 5 diagonals.
	f := features.Extract(m)
	if f.Ndiags != 5 {
		t.Errorf("Ndiags = %d, want 5", f.Ndiags)
	}
}

func TestLaplacian2D9pt(t *testing.T) {
	m := Laplacian2D9pt[float64](6, 6)
	validate(t, m)
	if !isSymmetric(m) {
		t.Error("9-point Laplacian not symmetric")
	}
	r := 2*6 + 2
	if m.RowDegree(r) != 9 {
		t.Errorf("interior row degree = %d, want 9", m.RowDegree(r))
	}
	if m.At(r, r) != 8 {
		t.Errorf("diagonal = %g, want 8", m.At(r, r))
	}
	f := features.Extract(m)
	if f.Ndiags != 9 {
		t.Errorf("Ndiags = %d, want 9", f.Ndiags)
	}
}

func TestLaplacian3D7pt(t *testing.T) {
	m := Laplacian3D7pt[float64](4, 5, 3)
	validate(t, m)
	if m.Rows != 60 {
		t.Fatalf("rows = %d, want 60", m.Rows)
	}
	if !isSymmetric(m) {
		t.Error("7-point Laplacian not symmetric")
	}
	r := (1*5+2)*4 + 2 // interior point
	if m.RowDegree(r) != 7 {
		t.Errorf("interior row degree = %d, want 7", m.RowDegree(r))
	}
	if m.At(r, r) != 6 {
		t.Errorf("diagonal = %g, want 6", m.At(r, r))
	}
}

func TestMultiDiagonalIsPerfectDIA(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := MultiDiagonal[float64](200, []int{-5, 0, 5}, rng)
	validate(t, m)
	f := features.Extract(m)
	if f.Ndiags != 3 {
		t.Errorf("Ndiags = %d, want 3", f.Ndiags)
	}
	if f.NTdiagsRatio != 1.0 {
		t.Errorf("NTdiags_ratio = %g, want 1", f.NTdiagsRatio)
	}
}

func TestSparseDiagonalSweepsFill(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lo := SparseDiagonal[float64](300, []int{-1, 0, 1}, 0.2, rng)
	hi := SparseDiagonal[float64](300, []int{-1, 0, 1}, 0.95, rng)
	validate(t, lo)
	validate(t, hi)
	fl, fh := features.Extract(lo), features.Extract(hi)
	if fl.ERDIA >= fh.ERDIA {
		t.Errorf("ER_DIA did not increase with fill: %g vs %g", fl.ERDIA, fh.ERDIA)
	}
	if fh.NTdiagsRatio < 0.9 {
		t.Errorf("high-fill NTdiags_ratio = %g, want ≥0.9", fh.NTdiagsRatio)
	}
}

func TestConstantDegreeIsPerfectELL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := ConstantDegree[float64](500, 8, rng)
	validate(t, m)
	f := features.Extract(m)
	if f.VarRD != 0 {
		t.Errorf("var_RD = %g, want 0", f.VarRD)
	}
	if f.ERELL != 1 {
		t.Errorf("ER_ELL = %g, want 1", f.ERELL)
	}
	if f.MaxRD != 8 {
		t.Errorf("max_RD = %g, want 8", f.MaxRD)
	}
}

func TestNearConstantDegreeJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := NearConstantDegree[float64](400, 10, 3, rng)
	validate(t, m)
	for r := 0; r < m.Rows; r++ {
		d := m.RowDegree(r)
		if d < 7 || d > 13 {
			t.Fatalf("row %d degree %d outside [7,13]", r, d)
		}
	}
	f := features.Extract(m)
	if f.VarRD == 0 {
		t.Error("jittered matrix has zero row-degree variance")
	}
}

func TestRandomUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandomUniform[float64](300, 200, 6, rng)
	validate(t, m)
	if m.Rows != 300 || m.Cols != 200 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	aver := float64(m.NNZ()) / 300
	if aver < 2 || aver > 14 {
		t.Errorf("average degree %g far from requested 6", aver)
	}
}

func TestBlockDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := BlockDiagonal[float64](10, 7, rng)
	validate(t, m)
	if m.Rows != 70 || m.NNZ() != 10*7*7 {
		t.Fatalf("rows=%d nnz=%d", m.Rows, m.NNZ())
	}
	// Entry outside any block must be zero.
	if m.At(0, 7) != 0 {
		t.Error("nonzero outside block")
	}
	if m.At(8, 7) == 0 {
		t.Error("zero inside block")
	}
}

func TestPreferentialAttachmentPowerLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := PreferentialAttachment[float64](4000, 3, rng)
	validate(t, m)
	if !isSymmetric(m) {
		t.Error("BA adjacency not symmetric")
	}
	f := features.Extract(m)
	if f.R == features.RNone {
		t.Fatal("BA graph not detected as scale-free")
	}
	if f.R < 1 || f.R > 4.5 {
		t.Errorf("BA exponent R = %g, want within (1, 4.5)", f.R)
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := RMAT[float64](12, 8, rng)
	validate(t, m)
	if m.Rows != 4096 {
		t.Fatalf("rows = %d, want 4096", m.Rows)
	}
	f := features.Extract(m)
	if f.MaxRD < 4*f.AverRD {
		t.Errorf("RMAT degrees not skewed: max %g, aver %g", f.MaxRD, f.AverRD)
	}
}

func TestRoadNetworkLowDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := RoadNetwork[float64](3000, rng)
	validate(t, m)
	if !isSymmetric(m) {
		t.Error("road network not symmetric")
	}
	f := features.Extract(m)
	if f.AverRD > 8 {
		t.Errorf("road network aver_RD = %g, want small", f.AverRD)
	}
}

func TestBipartiteIncidence(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m := BipartiteIncidence[float64](500, 90, 4, rng)
	validate(t, m)
	if m.Rows != 500 || m.Cols != 90 {
		t.Fatalf("dims = %dx%d", m.Rows, m.Cols)
	}
	for r := 0; r < m.Rows; r++ {
		if m.RowDegree(r) != 4 {
			t.Fatalf("row %d degree = %d, want 4", r, m.RowDegree(r))
		}
	}
}

func TestSampleDistinctProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		k := rng.Intn(n + 20) // may exceed n
		s := newDistinct(n).sampleDistinct(k, rng)
		wantLen := k
		if wantLen > n {
			wantLen = n
		}
		if len(s) != wantLen {
			return false
		}
		for i := range s {
			if s[i] < 0 || s[i] >= n {
				return false
			}
			if i > 0 && s[i] <= s[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	a := RandomUniform[float64](100, 100, 5, rand.New(rand.NewSource(99)))
	b := RandomUniform[float64](100, 100, 5, rand.New(rand.NewSource(99)))
	if !a.Equal(b) {
		t.Error("same seed produced different matrices")
	}
}
