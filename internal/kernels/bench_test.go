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
// search's performance record table), then ell_width beside the row-major
// loop at widths above its straight-line arms, then each format's serial
// batched body at k = 2, 3, 4, 8 in ns per (nonzero × vector) — the number a
// single-vector row's ns/nnz is compared with. It reports ns/nnz and GFLOP/s
// and no MB/s: the bytes a product streams depend on the format (CSR 16 B per
// nonzero, COO 24, DIA no indices, DIA and ELL their fill), and one constant
// per nonzero is wrong for all but one of them.
func BenchmarkKernels(b *testing.B) {
	lib := NewLibrary[float64]()
	run := func(prefix string, m *matrix.CSR[float64], f matrix.Format, kernels []*Kernel[float64]) {
		mat, err := Convert(m, f, 0)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = 1
		}
		y := make([]float64, m.Rows)
		for _, k := range kernels {
			b.Run(prefix+k.Name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.Run(mat, x, y, 0)
				}
				perOp := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(perOp*1e9/float64(m.NNZ()), "ns/nnz")
				b.ReportMetric(float64(FLOPs(m.NNZ()))/1e9/perOp, "gflops")
			})
		}
	}
	for f, m := range benchWorkloads() {
		run("", m, f, lib.ForFormat(f))
	}
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{6, 9, 16} {
		run(fmt.Sprintf("width=%d/", w), gen.ConstantDegree[float64](200000/w, w, rng), matrix.FormatELL,
			[]*Kernel[float64]{lib.Lookup("ell_width"), lib.Lookup("ell_rowmajor")})
	}
	for f, m := range benchWorkloads() {
		mat, err := Convert(m, f, 0)
		if err != nil {
			b.Fatal(err)
		}
		bk := lib.ForFormatBatch(f)[0] // the serial row: one chunk, the body alone
		for _, k := range []int{2, 3, 4, 8} {
			xb := make([]float64, m.Cols*k)
			for i := range xb {
				xb[i] = 1
			}
			yb := make([]float64, m.Rows*k)
			b.Run(fmt.Sprintf("%s/k=%d", bk.Name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bk.Run(mat, xb, yb, k, 1)
				}
				perOp := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(perOp*1e9/float64(m.NNZ()*k), "ns/(nnz·k)")
				b.ReportMetric(float64(FLOPs(m.NNZ())*int64(k))/1e9/perOp, "gflops")
			})
		}
	}
}

// BenchmarkConvert measures format conversion cost (part of SMAT's decision
// overhead accounting), per format on its characteristic workload, in ns per
// nonzero: stand-alone — Convert, which reads the structure itself —,
// scan-fed, as a serial tuner converts, from the record feature extraction
// already holds, and pooled, as a two-thread tuner converts: scan-fed, in
// row chunks on a pool whose workers the back-to-back iterations keep
// spinning.
func BenchmarkConvert(b *testing.B) {
	pool := NewPool[float64](2)
	defer pool.Close()
	for f, m := range benchWorkloads() {
		if f == matrix.FormatCSR {
			continue // wraps the input: nothing to measure
		}
		s := matrix.Scan(m)
		run := func(name string, convert func() error) {
			b.Run(f.String()+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(m.NNZ() * 16))
				for i := 0; i < b.N; i++ {
					if err := convert(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(m.NNZ()), "ns/nnz")
			})
		}
		run("standalone", func() error {
			_, err := Convert(m, f, 0)
			return err
		})
		run("scanfed", func() error {
			_, err := ConvertFrom(m, &s.Layout, f, 0, Params{})
			return err
		})
		run("pooled", func() error {
			_, _, err := ConvertTimedParams(m, &s.Layout, f, 0, Params{}, pool)
			return err
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
