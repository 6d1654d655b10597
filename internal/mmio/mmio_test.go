package mmio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"smat/internal/matrix"
)

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ts []matrix.Triple[float64]
	for r := 0; r < 30; r++ {
		for c := 0; c < 20; c++ {
			if rng.Float64() < 0.2 {
				ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := matrix.FromTriples(30, 20, ts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Error("round trip changed matrix")
	}
}

func TestReadGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
2 3 -1
3 4 7
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 3 || m.Cols != 4 || m.NNZ() != 3 {
		t.Fatalf("shape %dx%d nnz %d", m.Rows, m.Cols, m.NNZ())
	}
	if m.At(0, 0) != 2.5 || m.At(1, 2) != -1 || m.At(2, 3) != 7 {
		t.Error("wrong values")
	}
}

func TestReadSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1
2 1 5
3 2 6
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5 {
		t.Fatalf("nnz = %d, want 5 (mirrored off-diagonals)", m.NNZ())
	}
	if m.At(0, 1) != 5 || m.At(1, 0) != 5 {
		t.Error("symmetric mirror missing")
	}
	if m.At(1, 2) != 6 || m.At(2, 1) != 6 {
		t.Error("symmetric mirror missing")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 || m.At(0, 1) != -3 {
		t.Errorf("skew mirror wrong: %g / %g", m.At(1, 0), m.At(0, 1))
	}

	// A skew-symmetric matrix's diagonal is zero: an explicit zero there is
	// accepted (and dropped), a nonzero is malformed and names its entry.
	zero := "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n1 1 0\n2 1 3\n"
	if m, err := Read(strings.NewReader(zero)); err != nil {
		t.Errorf("explicit zero on the diagonal rejected: %v", err)
	} else if m.NNZ() != 2 {
		t.Errorf("explicit zero on the diagonal: nnz %d, want 2", m.NNZ())
	}
	nonzero := "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n2 1 3\n2 2 4.5\n"
	_, err = Read(strings.NewReader(nonzero))
	if err == nil || !strings.Contains(err.Error(), "entry 1 (2,2)") {
		t.Errorf("nonzero diagonal entry: err %v, want one naming entry 1 (2,2)", err)
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 1 || m.At(1, 0) != 1 {
		t.Error("pattern entries should be 1")
	}
}

func TestReadInteger(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate integer general
2 2 1
1 1 42
`
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 42 {
		t.Error("integer value wrong")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"bad header":      "%%NotMatrixMarket x y z w\n1 1 1\n1 1 1\n",
		"complex":         "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"array format":    "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"bad symmetry":    "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"missing size":    "%%MatrixMarket matrix coordinate real general\n",
		"truncated":       "%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1\n",
		"out of range":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
		"zero index":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
		"malformed entry": "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"bad value":       "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 xyz\n",
		"bad size line":   "%%MatrixMarket matrix coordinate real general\nfoo bar baz\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadHugeNNZHeader is the regression test for the unbounded
// pre-allocation: a crafted size line declaring ~9e12 nonzeros used to drive
// make([]Triple, 0, nnz) — a multi-terabyte allocation — before a single
// entry was parsed. The declared count is now only a clamped capacity hint,
// so the parse fails fast on the missing entries instead of dying in make.
func TestReadHugeNNZHeader(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1 1 9000000000000\n1 1 3.5\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("header declaring 9e12 nonzeros was accepted")
	}
}

func TestReadHugeDimsRejected(t *testing.T) {
	cases := map[string]string{
		"huge rows": "%%MatrixMarket matrix coordinate real general\n99999999999999 1 0\n",
		"huge cols": "%%MatrixMarket matrix coordinate real general\n1 99999999999999 0\n",
		"just over": "%%MatrixMarket matrix coordinate real general\n134217729 1 0\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadOverdeclaredNNZStillParsesEntries checks the clamp changes only the
// capacity hint, not semantics: a stream with more real entries than the
// prealloc cap would still parse (exercised here at small scale by a count
// above the declared entries present).
func TestReadOverdeclaredNNZStillParsesEntries(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -2\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1.5 || m.At(1, 1) != -2 {
		t.Error("values wrong after clamped-prealloc parse")
	}
}

func TestReadSkipsBlankAndCommentLines(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n% c1\n\n% c2\n2 2 2\n\n1 1 1\n% mid comment\n2 2 2\n"
	m, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Errorf("nnz = %d, want 2", m.NNZ())
	}
}
