package kernels

import (
	"fmt"
	"math/rand"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// benchWorkloads pairs each format with the matrix class it is meant for.
func benchWorkloads() map[matrix.Format]*matrix.CSR[float64] {
	rng := rand.New(rand.NewSource(1))
	return map[matrix.Format]*matrix.CSR[float64]{
		matrix.FormatDIA: gen.Laplacian2D5pt[float64](300, 300),
		matrix.FormatELL: gen.ConstantDegree[float64](50000, 4, rng),
		matrix.FormatCSR: gen.RandomUniform[float64](20000, 20000, 30, rng),
		matrix.FormatCOO: gen.RoadNetwork[float64](80000, rng),
	}
}

// BenchmarkKernels measures every registered kernel on its format's
// characteristic workload (the per-kernel rows behind the scoreboard
// search's performance record table).
func BenchmarkKernels(b *testing.B) {
	lib := NewLibrary[float64]()
	for f, m := range benchWorkloads() {
		mat, err := Convert(m, f, 0)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, m.Rows)
		for _, k := range lib.ForFormat(f) {
			b.Run(k.Name, func(b *testing.B) {
				b.SetBytes(int64(m.NNZ() * 16))
				for i := 0; i < b.N; i++ {
					k.Run(mat, x, y, 0)
				}
				b.ReportMetric(float64(FLOPs(m.NNZ()))/1e9*float64(b.N)/b.Elapsed().Seconds(), "gflops")
			})
		}
	}
}

// BenchmarkConvert measures format conversion cost (part of SMAT's decision
// overhead accounting), per format on its characteristic workload: stand-alone
// — Convert, which reads the structure itself — and scan-fed, as the tuner
// converts, from the record feature extraction already holds.
func BenchmarkConvert(b *testing.B) {
	for f, m := range benchWorkloads() {
		if f == matrix.FormatCSR {
			continue // wraps the input: nothing to measure
		}
		s := matrix.Scan(m)
		b.Run(f.String()+"/standalone", func(b *testing.B) {
			b.SetBytes(int64(m.NNZ() * 16))
			for i := 0; i < b.N; i++ {
				if _, err := Convert(m, f, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(f.String()+"/scanfed", func(b *testing.B) {
			b.SetBytes(int64(m.NNZ() * 16))
			for i := 0; i < b.N; i++ {
				if _, err := ConvertFrom(m, &s.Layout, f, 0, Params{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelScaling sweeps thread counts on the CSR workload,
// exposing the architecture configuration the scoreboard search probes.
func BenchmarkParallelScaling(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := gen.RandomUniform[float64](30000, 30000, 30, rng)
	mat, err := Convert(m, matrix.FormatCSR, 0)
	if err != nil {
		b.Fatal(err)
	}
	lib := NewLibrary[float64]()
	k := lib.Lookup("csr_parallel_nnz")
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, m.Rows)
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Run(mat, x, y, threads)
			}
		})
	}
}
