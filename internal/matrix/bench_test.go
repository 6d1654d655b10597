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

// BenchmarkScan times the structure scan's two halves, their sum and the
// diagonal sample on a uniform-random matrix of ≈ 20 entries a row: the
// O(rows) pass and the sample a tune always pays, the O(nnz) pass only DIA's
// conversion pays, and both passes back to back (Scan). ns/nnz, as
// benchmark/ reports extraction.
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
		for i := 0; i < b.N; i++ {
			_, _ = m.tally()
		}
		perNNZ(b)
	})
	b.Run("sample", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = SampleDiagonals(m, 0.8)
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

// BenchmarkFromTriples times assembly per triple (-benchmem gives the
// bytes): "uniform" is 50 k triples at random over 5000×5000; "road" ≈ 1.1 M
// triples of a road-network-like graph, each node linked both ways to 1–3
// near neighbours, in the order internal/gen's RoadNetwork emits them; "hub"
// one row of 2^16 entries in descending column order, where a quadratic
// row sort would show.
func BenchmarkFromTriples(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	uniform := make([]Triple[float64], 50000)
	for i := range uniform {
		uniform[i] = Triple[float64]{Row: rng.Intn(5000), Col: rng.Intn(5000), Val: 1}
	}
	const nodes = 280000
	road := make([]Triple[float64], 0, 6*nodes)
	for v := 0; v < nodes; v++ {
		for d := rng.Intn(3); d >= 0; d-- {
			u := v + 1 + rng.Intn(8)
			if u >= nodes {
				u = v - (u - v)
			}
			val := 0.5 + rng.Float64()
			road = append(road, Triple[float64]{Row: v, Col: u, Val: val}, Triple[float64]{Row: u, Col: v, Val: val})
		}
	}
	const hubLen = 1 << 16
	hub := make([]Triple[float64], hubLen)
	for i := range hub {
		hub[i] = Triple[float64]{Row: 0, Col: hubLen - 1 - i, Val: 1}
	}
	for _, c := range []struct {
		name       string
		rows, cols int
		ts         []Triple[float64]
	}{
		{"uniform", 5000, 5000, uniform},
		{"road", nodes, nodes, road},
		{"hub", 1, hubLen, hub},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := FromTriples(c.rows, c.cols, c.ts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(c.ts)), "ns/triple")
		})
	}
}
