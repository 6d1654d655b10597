package gen

import (
	"math/rand"
	"testing"

	"smat/internal/matrix"
)

// steadyBand is the offsets of a full band of half-width 17: the 35
// diagonals of the benchmark's dia_band35 input.
func steadyBand() []int {
	offs := make([]int, 0, 35)
	for d := -17; d <= 17; d++ {
		offs = append(offs, d)
	}
	return offs
}

// BenchmarkGenerate times every generator at the sizes of the benchmark's
// steady_spmv inputs (the eight named after them) and, for the generators
// steady_spmv does not use, at a comparable nonzero count. It reports
// ns/nnz beside ns/op; -benchmem gives the bytes, to hold against the
// result's own CSR (16·nnz + 8·(rows+1) bytes in float64).
func BenchmarkGenerate(b *testing.B) {
	cases := []struct {
		name  string
		build func(rng *rand.Rand) *matrix.CSR[float64]
	}{
		{"dia_band35/MultiDiagonal", func(rng *rand.Rand) *matrix.CSR[float64] {
			return MultiDiagonal[float64](40000, steadyBand(), rng)
		}},
		{"dia_7pt/Laplacian3D7pt", func(*rand.Rand) *matrix.CSR[float64] { return Laplacian3D7pt[float64](56, 56, 56) }},
		{"ell_deg3/ConstantDegree", func(rng *rand.Rand) *matrix.CSR[float64] { return ConstantDegree[float64](400000, 3, rng) }},
		{"ell_incid4/BipartiteIncidence", func(rng *rand.Rand) *matrix.CSR[float64] {
			return BipartiteIncidence[float64](300000, 50000, 4, rng)
		}},
		{"csr_rand90/RandomUniform", func(rng *rand.Rand) *matrix.CSR[float64] {
			return RandomUniform[float64](14000, 14000, 90, rng)
		}},
		{"csr_rand150/RandomUniform", func(rng *rand.Rand) *matrix.CSR[float64] {
			return RandomUniform[float64](9000, 9000, 150, rng)
		}},
		{"coo_road/RoadNetwork", func(rng *rand.Rand) *matrix.CSR[float64] { return RoadNetwork[float64](300000, rng) }},
		{"coo_plaw/PreferentialAttachment", func(rng *rand.Rand) *matrix.CSR[float64] {
			return PreferentialAttachment[float64](120000, 4, rng)
		}},
		{"SparseDiagonal", func(rng *rand.Rand) *matrix.CSR[float64] {
			return SparseDiagonal[float64](40000, steadyBand(), 0.7, rng)
		}},
		{"NearConstantDegree", func(rng *rand.Rand) *matrix.CSR[float64] {
			return NearConstantDegree[float64](100000, 12, 4, rng)
		}},
		{"Laplacian2D9pt", func(*rand.Rand) *matrix.CSR[float64] { return Laplacian2D9pt[float64](400, 400) }},
		{"BlockDiagonal", func(rng *rand.Rand) *matrix.CSR[float64] { return BlockDiagonal[float64](30000, 6, rng) }},
		{"RMAT", func(rng *rand.Rand) *matrix.CSR[float64] { return RMAT[float64](16, 8, rng) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			nnz := 0
			for i := 0; i < b.N; i++ {
				nnz = c.build(rand.New(rand.NewSource(int64(i + 1)))).NNZ()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nnz), "ns/nnz")
		})
	}
}
