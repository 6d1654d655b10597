// Hybrid-format extension: the paper's extensibility claim in action.
//
// SMAT's framework is "extension-free" (Section 3): a new storage format
// joins the system by adding its storage + kernels to the kernel library —
// nothing in the tuner changes. This example adds HYB (the ELL+COO hybrid
// of Bell & Garland, discussed in the paper's related work) and pits it
// against the four basic formats on its home turf: a matrix that is mostly
// regular with a few heavy rows, where ELL drowns in padding and CSR pays
// for irregularity.
//
// Run: go run ./examples/hybrid
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"smat/internal/kernels"
	"smat/internal/matrix"
)

func main() {
	// 40,000 rows of degree 2 with near-band columns, plus 20 heavy rows of
	// degree 2,000: regular enough for a width-2 ELL part, too skewed for
	// pure ELL.
	rng := rand.New(rand.NewSource(1))
	n := 40000
	var ts []matrix.Triple[float64]
	for r := 0; r < n; r++ {
		if r%2000 == 0 {
			seen := map[int]bool{}
			for len(seen) < 2000 {
				c := rng.Intn(n)
				if !seen[c] {
					seen[c] = true
					ts = append(ts, matrix.Triple[float64]{Row: r, Col: c, Val: 1})
				}
			}
			continue
		}
		c1 := (r + 1 + rng.Intn(64)) % n
		c2 := (r + 128 + rng.Intn(64)) % n
		if c2 == c1 {
			c2 = (c2 + 1) % n
		}
		ts = append(ts, matrix.Triple[float64]{Row: r, Col: c1, Val: 1})
		ts = append(ts, matrix.Triple[float64]{Row: r, Col: c2, Val: 1})
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix: %d rows, %d nonzeros, max row degree %d\n", n, m.NNZ(), m.MaxRowDegree())

	// One registry call is the entire integration.
	lib := kernels.NewLibrary[float64]()
	lib.RegisterHYB()

	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, n)
	measure := func(k *kernels.Kernel[float64], mat *kernels.Mat[float64]) float64 {
		k.Run(mat, x, y, 0) // warm up
		const reps = 5
		start := time.Now()
		for i := 0; i < reps; i++ {
			k.Run(mat, x, y, 0)
		}
		sec := time.Since(start).Seconds() / reps
		return float64(2*m.NNZ()) / sec / 1e9
	}

	fmt.Println("\nbest kernel per format (GFLOPS):")
	formats := append(append([]matrix.Format{}, matrix.Formats[:]...), matrix.FormatHYB)
	for _, f := range formats {
		mat, err := kernels.Convert(m, f, 8)
		if err != nil {
			fmt.Printf("  %-4s: conversion refused (%v)\n", f, err)
			continue
		}
		bestName, best := "", 0.0
		for _, k := range lib.ForFormat(f) {
			if g := measure(k, mat); g > best {
				best, bestName = g, k.Name
			}
		}
		fmt.Printf("  %-4s: %5.2f  (%s)\n", f, best, bestName)
	}
	h := m.ToHYB(-1)
	fmt.Printf("\nHYB split: ELL width %d (%d entries) + COO tail (%d entries)\n",
		h.ELL.Width, h.ELL.NNZ(), h.COO.NNZ())

}
