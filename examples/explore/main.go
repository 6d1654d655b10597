// Explore: what SMAT sees in a matrix and why it decides what it decides.
//
// Builds one matrix of each structural class (diagonal, regular, power-law,
// irregular), prints the Table 2 features, and traces the runtime decision
// (prediction vs execute-and-measure fallback) for each.
//
// Run: go run ./examples/explore
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"smat"
	"smat/internal/gen"
	"smat/internal/matrix"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		m    *matrix.CSR[float64]
	}{
		{"pentadiagonal stencil", gen.MultiDiagonal[float64](20000, []int{-100, -1, 0, 1, 100}, rng)},
		{"constant-degree regular", gen.ConstantDegree[float64](20000, 5, rng)},
		{"preferential-attachment graph", gen.PreferentialAttachment[float64](20000, 3, rng)},
		{"irregular random", gen.RandomUniform[float64](20000, 20000, 12, rng)},
		{"arrowhead (pathological)", arrowhead(20000, rng)},
	}

	model := smat.HeuristicModel()
	fmt.Printf("model: %d rules, confidence threshold %.2f\n\n", len(model.Ruleset.Rules), model.ConfidenceThreshold)
	tuner := smat.NewTuner[float64](model)

	for _, c := range cases {
		a, err := smat.NewCSR(c.m.Rows, c.m.Cols, c.m.RowPtr, c.m.ColIdx, c.m.Vals)
		if err != nil {
			log.Fatal(err)
		}
		f := a.Features()
		fmt.Printf("%s\n", c.name)
		fmt.Printf("  features: %s\n", f.String())
		start := time.Now()
		op, err := tuner.Tune(a)
		if err != nil {
			log.Fatal(err)
		}
		tuneTime := time.Since(start)
		// Only a measuring decision knows its cost in CSR-SpMVs: a predicted
		// one runs no kernel, so there is no unit to divide by.
		fmt.Printf("  decision: %s\n", op.Decision())
		fmt.Printf("  tuning:   %s\n\n", tuneTime.Round(time.Microsecond))
	}

	// Reordering changes the structure SMAT sees: a banded matrix hidden
	// under a random permutation looks like CSR territory, and reverse
	// Cuthill–McKee reordering reveals the band — after which SMAT picks DIA.
	fmt.Println("reordering demo: tridiagonal matrix under a random permutation")
	hidden := shuffledBand(20000, rng)
	showDecision(tuner, "  before RCM", hidden)
	perm, err := hidden.RCM()
	if err != nil {
		log.Fatal(err)
	}
	revealed, err := hidden.Permute(perm)
	if err != nil {
		log.Fatal(err)
	}
	showDecision(tuner, "  after RCM ", revealed)
}

func showDecision(tuner *smat.Tuner[float64], tag string, m *matrix.CSR[float64]) {
	a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err != nil {
		log.Fatal(err)
	}
	op, err := tuner.Tune(a)
	if err != nil {
		log.Fatal(err)
	}
	d := op.Decision()
	fmt.Printf("%s: bandwidth %6d, Ndiags %6d -> %s (%s)\n",
		tag, m.Bandwidth(), a.Features().Ndiags, d.Chosen, d.Kernel)
}

// shuffledBand hides a tridiagonal system under a random symmetric
// permutation.
func shuffledBand(n int, rng *rand.Rand) *matrix.CSR[float64] {
	perm := rng.Perm(n)
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: perm[i], Col: perm[i], Val: 2})
		if i > 0 {
			ts = append(ts, matrix.Triple[float64]{Row: perm[i], Col: perm[i-1], Val: -1})
			ts = append(ts, matrix.Triple[float64]{Row: perm[i-1], Col: perm[i], Val: -1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// arrowhead has one dense row and column: maximal row-degree variance, the
// ELL worst case.
func arrowhead(n int, rng *rand.Rand) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for i := 0; i < n; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i, Col: i, Val: 2})
		if i > 0 {
			ts = append(ts, matrix.Triple[float64]{Row: 0, Col: i, Val: 1})
			ts = append(ts, matrix.Triple[float64]{Row: i, Col: 0, Val: 1})
		}
	}
	m, err := matrix.FromTriples(n, n, ts)
	if err != nil {
		log.Fatal(err)
	}
	return m
}
