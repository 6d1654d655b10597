// Quickstart: the unified SMAT interface on a small tridiagonal system.
//
// The user supplies a matrix in CSR form — nothing else — and SMAT decides
// at runtime which storage format and kernel to use (here: a tridiagonal
// matrix, which DIA and ELL both store without padding).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"smat"
)

func main() {
	// Assemble a 10,000-point 1D Poisson operator in coordinate form.
	const n = 10000
	var entries []smat.Entry[float64]
	for i := 0; i < n; i++ {
		entries = append(entries, smat.Entry[float64]{Row: i, Col: i, Val: 2})
		if i > 0 {
			entries = append(entries, smat.Entry[float64]{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			entries = append(entries, smat.Entry[float64]{Row: i, Col: i + 1, Val: -1})
		}
	}
	a, err := smat.FromEntries(n, n, entries)
	if err != nil {
		log.Fatal(err)
	}

	// A tuner needs a model: DefaultModel is the shipped one, learned from
	// measured labels; `smat-train` retrains it on your machine. Options
	// (WithThreads, WithCacheSize, ...) configure the serving runtime; the
	// defaults are fine here.
	tuner := smat.NewTuner[float64](smat.DefaultModel())

	// The paper's SMAT_dCSR_SpMV: y = A·x with automatic format selection.
	// WithIterations tells the tuner how many SpMVs this matrix is expected
	// to serve, so the cost of converting out of CSR is weighed against the
	// remaining work rather than assumed free (leave it off to tune
	// asymptotically).
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, n)
	if err := tuner.CSRSpMV(a, x, y, smat.WithIterations(500)); err != nil {
		log.Fatal(err)
	}

	// The decision is cached on the handle; inspect it without re-tuning.
	d := a.Operator().Decision()
	fmt.Printf("matrix: %d x %d, %d nonzeros\n", n, n, a.NNZ())
	fmt.Printf("decision: %s\n", d)
	// For the interior rows of this operator, (A·1)_i = -1 + 2 - 1 = 0.
	fmt.Printf("y[0]=%g y[1]=%g ... y[n-1]=%g\n", y[0], y[1], y[n-1])
}
