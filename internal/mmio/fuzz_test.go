package mmio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzMMIORead checks that arbitrary input never panics the parser, never
// drives an unbounded allocation from attacker-controlled size lines, and
// that anything it accepts is a valid matrix that survives a write/read
// round trip.
func FuzzMMIORead(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 3.5\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 1\n3 1 -2\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 7\n")
	f.Add("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 7\n2 2 1.5\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n% c\n\n1 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n999999 1 0\n")
	// Regression seeds: crafted size lines that used to pre-allocate from the
	// declared nnz (multi-terabyte make) or feed huge dims to FromTriples.
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 9000000000000\n1 1 2.0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n99999999999999 1 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 99999999999999 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted invalid matrix: %v", err)
		}
		if m.Rows > 1<<20 || m.Cols > 1<<20 {
			return // skip round trip on absurd dimensions
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("write of accepted matrix failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip read failed: %v", err)
		}
		if !m.Equal(back) {
			t.Fatal("round trip changed matrix")
		}
	})
}
