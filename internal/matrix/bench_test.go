package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchMatrix(b *testing.B) *CSR[float64] {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randCSR(rng, 2000, 2000, 0.005)
}

// BenchmarkValidate is the per-request check of the serving path (NewCSR),
// reported as benchmark/ reports it (matrix.validate_ns_per_nnz), at the two
// ends of the row-length range: ≈ 3 entries a row, where the per-row work
// shows, and ≈ 60, where the per-entry loop does. About 60 k entries each.
func BenchmarkValidate(b *testing.B) {
	for _, deg := range []int{3, 60} {
		b.Run(fmt.Sprintf("deg%d", deg), func(b *testing.B) {
			rows := 60000 / deg
			m := randCSR(rand.New(rand.NewSource(1)), rows, rows, float64(deg)/float64(rows))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Validate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
		})
	}
}

// BenchmarkScan times the structure scan's two halves and their sum on a
// uniform-random matrix of ≈ 20 entries a row: the O(rows) pass a tune always
// pays, the O(nnz) pass it pays only when the ruleset needs the diagonals, and
// both back to back (Scan). ns/nnz, as benchmark/ reports extraction.
func BenchmarkScan(b *testing.B) {
	m := randCSR(rand.New(rand.NewSource(1)), 4000, 4000, 0.005)
	perNNZ := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
	}
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ScanRows(m)
		}
		perNNZ(b)
	})
	b.Run("columns", func(b *testing.B) {
		rows := ScanRows(m)
		for i := 0; i < b.N; i++ {
			s := *rows
			ScanColumns(m, &s)
		}
		perNNZ(b)
	})
	b.Run("both", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Scan(m)
		}
		perNNZ(b)
	})
}

func BenchmarkSpGEMM(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Mul(m)
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

func BenchmarkTripleProductRAP(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randCSR(rng, 2000, 2000, 0.005)
	p := randCSR(rng, 2000, 500, 0.004)
	r := p.Transpose()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = TripleProduct(r, a, p)
	}
}

func BenchmarkConversions(b *testing.B) {
	m := benchMatrix(b)
	b.Run("ToCOO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.ToCOO()
		}
	})
	b.Run("ToELL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := m.ToELL(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ToHYB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = m.ToHYB(-1)
		}
	})
}

func BenchmarkFromTriples(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := make([]Triple[float64], 50000)
	for i := range ts {
		ts[i] = Triple[float64]{Row: rng.Intn(5000), Col: rng.Intn(5000), Val: 1}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FromTriples(5000, 5000, ts); err != nil {
			b.Fatal(err)
		}
	}
}
