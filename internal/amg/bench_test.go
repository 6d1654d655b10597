package amg

import (
	"testing"

	"smat/internal/gen"
)

// BenchmarkSetup measures AMG setup (coarsening + interpolation + Galerkin
// products) per configuration.
func BenchmarkSetup(b *testing.B) {
	a := gen.Laplacian2D9pt[float64](120, 120)
	for _, c := range []Coarsening{RugeStueben, CLJP} {
		b.Run(c.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SetupPooled(a, Options{Coarsening: c}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVCycle measures one V-cycle, the unit of the paper's Table 4
// solve phase.
func BenchmarkVCycle(b *testing.B) {
	a := gen.Laplacian2D9pt[float64](120, 120)
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	bvec := make([]float64, a.Rows)
	for i := range bvec {
		bvec[i] = 1
	}
	x := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.VCycle(bvec, x)
	}
}

func BenchmarkPCG(b *testing.B) {
	a := gen.Laplacian2D5pt[float64](80, 80)
	h, err := SetupPooled(a, Options{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	bvec := make([]float64, a.Rows)
	for i := range bvec {
		bvec[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, a.Rows)
		h.SolvePCG(bvec, x, 1e-8, 100)
	}
}
