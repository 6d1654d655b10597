package features

import (
	"math/rand"
	"testing"

	"smat/internal/matrix"
)

// BenchmarkExtract measures feature extraction, the dominant component of
// SMAT's predicted-path decision overhead (Table 3).
func BenchmarkExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ts []matrix.Triple[float64]
	n := 20000
	for r := 0; r < n; r++ {
		for d := 0; d < 8; d++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: rng.Intn(n), Val: 1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Extract(m)
	}
}

// BenchmarkExtractDense guards the flat-array diagonal tally: matrices with
// plenty of nonzeros per diagonal slot must keep taking the O(Rows+Cols)
// array path, whose per-nonzero increment is a single indexed add. A
// regression routing these through the sorting tally shows up as a large
// slowdown here.
func BenchmarkExtractDense(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	var ts []matrix.Triple[float64]
	for r := 0; r < n; r++ {
		for d := 0; d < 8; d++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: rng.Intn(n), Val: 1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		b.Fatal(err)
	}
	if m.NNZ() < (m.Rows+m.Cols)/8 {
		b.Fatal("benchmark matrix unexpectedly hypersparse")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Extract(m)
	}
}

// BenchmarkExtractHypersparse measures the sorting tally on a matrix whose
// diagonal slot count dwarfs its nonzeros — the case the flat array used to
// dominate with its allocation and zero-sweep.
func BenchmarkExtractHypersparse(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	n := 2000000
	var ts []matrix.Triple[float64]
	for i := 0; i < 5000; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: rng.Intn(n), Col: rng.Intn(n), Val: 1})
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		b.Fatal(err)
	}
	if m.NNZ() >= (m.Rows+m.Cols)/8 {
		b.Fatal("benchmark matrix not hypersparse")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Extract(m)
	}
}

func BenchmarkPowerLawExponent(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	hist := make([]int, 201)
	for i := 0; i < 100000; i++ {
		hist[1+rng.Intn(200)]++
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PowerLawExponent(hist)
	}
}
