package features

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"smat/internal/matrix"
)

func mustCSR(t *testing.T, rows, cols int, ts []matrix.Triple[float64]) *matrix.CSR[float64] {
	t.Helper()
	m, err := matrix.FromTriples(rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// paperCSR is the Figure 2 example matrix.
func paperCSR(t *testing.T) *matrix.CSR[float64] {
	return mustCSR(t, 4, 4, []matrix.Triple[float64]{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 5},
		{Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: 6},
		{Row: 2, Col: 0, Val: 8}, {Row: 2, Col: 2, Val: 3}, {Row: 2, Col: 3, Val: 7},
		{Row: 3, Col: 1, Val: 9}, {Row: 3, Col: 3, Val: 4},
	})
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestExtractPaperExample(t *testing.T) {
	f := Extract(paperCSR(t))
	if f.M != 4 || f.N != 4 || f.NNZ != 9 {
		t.Fatalf("shape = %d/%d/%d", f.M, f.N, f.NNZ)
	}
	if !almost(f.AverRD, 2.25) {
		t.Errorf("aver_RD = %g, want 2.25", f.AverRD)
	}
	if f.MaxRD != 3 {
		t.Errorf("max_RD = %g, want 3", f.MaxRD)
	}
	if !almost(f.VarRD, 0.1875) {
		t.Errorf("var_RD = %g, want 0.1875", f.VarRD)
	}
	if f.Ndiags != 3 {
		t.Errorf("Ndiags = %d, want 3", f.Ndiags)
	}
	// Diagonals: offset -2 holds 2/2 slots, offset 0 holds 4/4, offset 1
	// holds 3/3 → all three are "true" diagonals.
	if !almost(f.NTdiagsRatio, 1.0) {
		t.Errorf("NTdiags_ratio = %g, want 1.0", f.NTdiagsRatio)
	}
	if !almost(f.ERDIA, 9.0/12.0) {
		t.Errorf("ER_DIA = %g, want 0.75", f.ERDIA)
	}
	if !almost(f.ERELL, 9.0/12.0) {
		t.Errorf("ER_ELL = %g, want 0.75", f.ERELL)
	}
	if f.R != RNone {
		t.Errorf("R = %g, want RNone (only 2 distinct degrees)", f.R)
	}
}

func TestExtractTridiagonal(t *testing.T) {
	// A pure tridiagonal matrix: the DIA-perfect case (cf. the paper's
	// t2d_q9 record with NTdiags_ratio 1.0 and R inf).
	n := 100
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: 2})
		if i > 0 {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i + 1, Val: -1})
		}
	}
	f := Extract(mustCSR(t, n, n, ts))
	if f.Ndiags != 3 {
		t.Fatalf("Ndiags = %d, want 3", f.Ndiags)
	}
	if f.NTdiagsRatio != 1.0 {
		t.Errorf("NTdiags_ratio = %g, want 1.0", f.NTdiagsRatio)
	}
	if f.ERDIA < 0.99 {
		t.Errorf("ER_DIA = %g, want ≈1", f.ERDIA)
	}
	if f.R != RNone {
		t.Errorf("R = %g, want RNone on a stencil matrix", f.R)
	}
}

// histogram tallies a degree list the way matrix.Scan does: hist[k] rows of
// degree k.
func histogram(degrees []int) []int {
	var hist []int
	for _, d := range degrees {
		for d >= len(hist) {
			hist = append(hist, 0)
		}
		hist[d]++
	}
	return hist
}

func TestPowerLawExponentRecoversKnownExponent(t *testing.T) {
	// Synthesize a histogram that follows n(k) = C·k^(-2.5).
	hist := make([]int, 61)
	for k := 1; k <= 60; k++ {
		hist[k] = int(math.Round(20000 * math.Pow(float64(k), -2.5)))
	}
	r := PowerLawExponent(hist)
	if math.Abs(r-2.5) > 0.15 {
		t.Errorf("fitted R = %g, want ≈2.5", r)
	}
}

func TestPowerLawExponentRejectsNonScaleFree(t *testing.T) {
	// Uniform degrees: no decay.
	uniform := make([]int, 0, 500)
	for k := 1; k <= 5; k++ {
		for i := 0; i < 100; i++ {
			uniform = append(uniform, k)
		}
	}
	if r := PowerLawExponent(histogram(uniform)); r != RNone {
		t.Errorf("uniform degrees: R = %g, want RNone", r)
	}
	// Too few distinct degrees.
	if r := PowerLawExponent(histogram([]int{3, 3, 3, 3, 5, 5})); r != RNone {
		t.Errorf("two distinct degrees: R = %g, want RNone", r)
	}
	// Increasing distribution (more high-degree than low): slope positive.
	var increasing []int
	for k := 1; k <= 10; k++ {
		for i := 0; i < k*k; i++ {
			increasing = append(increasing, k)
		}
	}
	if r := PowerLawExponent(histogram(increasing)); r != RNone {
		t.Errorf("increasing distribution: R = %g, want RNone", r)
	}
	// Empty and all-zero.
	if r := PowerLawExponent(nil); r != RNone {
		t.Errorf("empty degrees: R = %g, want RNone", r)
	}
	if r := PowerLawExponent(histogram([]int{0, 0, 0})); r != RNone {
		t.Errorf("all-zero degrees: R = %g, want RNone", r)
	}
}

func TestFeatureInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(50)
		cols := 1 + rng.Intn(50)
		var ts []matrix.Triple[float64]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < 0.2 {
					ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: 1})
				}
			}
		}
		m, err := matrix.FromTriples(rows, cols, ts)
		if err != nil {
			return false
		}
		ft := Extract(m)
		if ft.NNZ != m.NNZ() || ft.M != rows || ft.N != cols {
			return false
		}
		if ft.AverRD > ft.MaxRD+1e-12 {
			t.Logf("aver_RD %g > max_RD %g", ft.AverRD, ft.MaxRD)
			return false
		}
		if ft.VarRD < 0 {
			return false
		}
		if ft.NTdiagsRatio < 0 || ft.NTdiagsRatio > 1 {
			return false
		}
		if ft.NNZ > 0 && (ft.ERDIA <= 0 || ft.ERDIA > 1 || ft.ERELL <= 0 || ft.ERELL > 1) {
			t.Logf("ER out of range: dia=%g ell=%g", ft.ERDIA, ft.ERELL)
			return false
		}
		maxDiags := rows + cols - 1
		if ft.Ndiags < 0 || ft.Ndiags > maxDiags {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestExtractHypersparseAgreesWithDense pins the hypersparse (sorted-offset)
// diagonal tally of matrix.Scan against a brute-force diagonal count: they
// must agree on every diagonal statistic.
func TestExtractHypersparseAgreesWithDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// 100k × 100k with 60 nonzeros: NNZ << (Rows+Cols)/8, firmly hypersparse.
	rows, cols := 100000, 100000
	var ts []matrix.Triple[float64]
	for i := 0; i < 60; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: rng.Intn(rows), Col: rng.Intn(cols), Val: 1})
	}
	// Plus one fully occupied short diagonal so trueDiags is nonzero.
	ts = append(ts, matrix.Triple[float64]{Row: rows - 1, Col: 0, Val: 1})
	m := mustCSR(t, rows, cols, ts)
	if m.NNZ() >= (rows+cols)/8 {
		t.Fatalf("test matrix not hypersparse: %d nonzeros", m.NNZ())
	}
	f := Extract(m)

	// Brute-force reference over the triples.
	diag := map[int]int{}
	for r := 0; r < rows; r++ {
		for jj := m.RowPtr[r]; jj < m.RowPtr[r+1]; jj++ {
			diag[m.ColIdx[jj]-r]++
		}
	}
	trueDiags := 0
	for off, cnt := range diag {
		if float64(cnt) >= TrueDiagOccupancy*float64(diagLength(rows, cols, off)) {
			trueDiags++
		}
	}
	if f.Ndiags != len(diag) {
		t.Errorf("Ndiags = %d, want %d", f.Ndiags, len(diag))
	}
	wantRatio := float64(trueDiags) / float64(len(diag))
	if !almost(f.NTdiagsRatio, wantRatio) {
		t.Errorf("NTdiags_ratio = %g, want %g", f.NTdiagsRatio, wantRatio)
	}
	if !almost(f.ERDIA, float64(f.NNZ)/(float64(f.Ndiags)*float64(rows))) {
		t.Errorf("ER_DIA = %g inconsistent", f.ERDIA)
	}
}

// TestExtractRegimeBoundary walks matrices across the hypersparse threshold
// and checks both tally paths yield identical features for the same matrix
// structure scaled to either side of the cutoff.
func TestExtractRegimeBoundary(t *testing.T) {
	// A 1000×1000 tridiagonal band restricted to the first b rows: with
	// b = 100 the matrix has ~300 nonzeros > (2000)/8 = 250 (flat path),
	// with b = 70 it has ~210 < 250 (sorted path). Both must report the same
	// three diagonals.
	for _, b := range []int{70, 100} {
		n := 1000
		var ts []matrix.Triple[float64]
		for i := 0; i < b; i++ {
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: 2})
			if i > 0 {
				ts = append(ts, matrix.Triple[float64]{Row: i, Col: i - 1, Val: -1})
			}
			if i < n-1 {
				ts = append(ts, matrix.Triple[float64]{Row: i, Col: i + 1, Val: -1})
			}
		}
		m := mustCSR(t, n, n, ts)
		f := Extract(m)
		if f.Ndiags != 3 {
			t.Errorf("b=%d (nnz=%d): Ndiags = %d, want 3", b, m.NNZ(), f.Ndiags)
		}
		if f.NNZ != len(ts) {
			t.Errorf("b=%d: NNZ = %d, want %d", b, f.NNZ, len(ts))
		}
	}
}

func TestVectorMatchesAttributeNames(t *testing.T) {
	f := Extract(paperCSR(t))
	v := f.Vector()
	if len(v) != len(AttributeNames) {
		t.Fatalf("Vector length %d != %d attribute names", len(v), len(AttributeNames))
	}
}

func TestStringRendersInf(t *testing.T) {
	f := Extract(paperCSR(t))
	s := f.String()
	if !strings.Contains(s, "R=inf") {
		t.Errorf("String() = %q, want R=inf", s)
	}
	if !strings.Contains(s, "NNZ=9") {
		t.Errorf("String() = %q, want NNZ=9", s)
	}
}

func TestExtractEmptyAndZeroRow(t *testing.T) {
	f := Extract(mustCSR(t, 5, 5, nil))
	if f.NNZ != 0 || f.Ndiags != 0 || f.ERDIA != 0 || f.ERELL != 0 {
		t.Errorf("empty matrix features = %+v", f)
	}
	if f.R != RNone {
		t.Errorf("empty matrix R = %g, want RNone", f.R)
	}
	zero := matrix.CSR[float64]{Rows: 0, Cols: 0, RowPtr: []int{0}}
	fz := Extract(&zero)
	if fz.R != RNone || fz.M != 0 {
		t.Errorf("0x0 matrix features = %+v", fz)
	}
}

func TestDiagLength(t *testing.T) {
	cases := []struct {
		rows, cols, off, want int
	}{
		{4, 4, 0, 4},
		{4, 4, 1, 3},
		{4, 4, -2, 2},
		{4, 4, 3, 1},
		{4, 4, -3, 1},
		{2, 5, 3, 2},
		{5, 2, -3, 2},
		{3, 3, 5, 0},
	}
	for _, c := range cases {
		if got := diagLength(c.rows, c.cols, c.off); got != c.want {
			t.Errorf("diagLength(%d,%d,%d) = %d, want %d", c.rows, c.cols, c.off, got, c.want)
		}
	}
}
