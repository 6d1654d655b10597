// AMG solver example: the paper's motivating application (Section 7.4).
//
// An algebraic multigrid solve of a 2D Poisson problem where every SpMV —
// relaxation, residual, restriction, prolongation, at every grid level —
// goes through SMAT. The grid operators change structure across levels
// (Figure 1 of the paper), so different levels end up in different formats.
//
// Run: go run ./examples/amgsolver
package main

import (
	"fmt"
	"log"
	"time"

	"smat"
	"smat/internal/amg"
	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/matrix"
)

func main() {
	// A 200×200 grid, 9-point Laplacian: 40,000 unknowns.
	a := gen.Laplacian2D9pt[float64](200, 200)
	fmt.Printf("problem: 9-point Laplacian, %d unknowns, %d nonzeros\n", a.Rows, a.NNZ())

	h, err := amg.SetupPooled(a, amg.Options{Coarsening: amg.RugeStueben}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("AMG hierarchy: %d levels, operator complexity %.2f\n",
		len(h.Levels), h.OperatorComplexity())

	// Bind every level operator to a SMAT-tuned SpMV. The tuner sees each
	// level's matrix as a fresh input and decides per level.
	tuner := autotune.New[float64](smat.DefaultModel(), autotune.Config{})
	if err := h.Bind(func(m *matrix.CSR[float64]) (amg.SpMV[float64], error) {
		op, dec, err := tuner.Tune(m)
		if err != nil {
			return nil, err
		}
		fmt.Printf("  %7d-row operator: %s\n", m.Rows, dec)
		return op, nil
	}); err != nil {
		log.Fatal(err)
	}

	// Solve A u = b for a constant source term.
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	u := make([]float64, a.Rows)
	start := time.Now()
	stats := h.Solve(b, u, 1e-8, 100)
	fmt.Printf("solve: %d V-cycles, relative residual %.2e, %s (converged=%v)\n",
		stats.Iterations, stats.RelResidual, time.Since(start).Round(time.Millisecond), stats.Converged)
}
