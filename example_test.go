package smat_test

import (
	"fmt"
	"strings"

	"smat"
)

// ExampleTuner_CSRSpMV shows the paper's unified interface: input in CSR,
// format chosen automatically.
func ExampleTuner_CSRSpMV() {
	// A 4x4 tridiagonal matrix.
	a, err := smat.FromEntries(4, 4, []smat.Entry[float64]{
		{Row: 0, Col: 0, Val: 2}, {Row: 0, Col: 1, Val: -1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 2, Col: 1, Val: -1}, {Row: 2, Col: 2, Val: 2}, {Row: 2, Col: 3, Val: -1},
		{Row: 3, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 2},
	})
	if err != nil {
		panic(err)
	}
	tuner := smat.NewTuner[float64](smat.HeuristicModel(), smat.WithThreads(1))
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		panic(err)
	}
	fmt.Println(y)
	// Output: [0 0 0 5]
}

// ExampleTuner_Tune inspects the decision SMAT made for a matrix.
func ExampleTuner_Tune() {
	var entries []smat.Entry[float64]
	for i := 0; i < 5000; i++ {
		entries = append(entries, smat.Entry[float64]{Row: i, Col: i, Val: 2})
		if i+1 < 5000 {
			entries = append(entries, smat.Entry[float64]{Row: i, Col: i + 1, Val: -1})
		}
	}
	a, err := smat.FromEntries(5000, 5000, entries)
	if err != nil {
		panic(err)
	}
	tuner := smat.NewTuner[float64](smat.HeuristicModel(), smat.WithThreads(1))
	op, err := tuner.Tune(a)
	if err != nil {
		panic(err)
	}
	d := op.Decision()
	fmt.Println("format:", d.Chosen, "predicted:", d.PredictedOK)
	// Output: format: DIA predicted: true
}

// ExampleDecision_String is the one-line rendering, one decision per path: a
// confident prediction that never read the column indices, an
// execute-and-measure fallback under an iteration hint too short to pay for
// the winner, a cache hit on a remembered pattern, and a first CSRSpMV that
// deferred its DIA conversion — before and after the handle converted.
func ExampleDecision_String() {
	fmt.Println(smat.Decision{
		PredictedOK: true, Predicted: smat.FormatELL, Confidence: 0.97, ColumnPassSkipped: true,
		Chosen: smat.FormatELL, Kernel: "ell_width_parallel",
	})
	fmt.Println(smat.Decision{
		UsedFallback: true, Confidence: 1,
		Chosen: smat.FormatCSR, Kernel: "csr_parallel_nnz_unroll4",
		IterationHint: 10, Asymptotic: smat.FormatCOO, BreakEvenIters: 40, Amortized: true, FeatureSec: 6.54, CSRSpMVSec: 1,
	})
	fmt.Println(smat.Decision{
		PredictedOK: true, Predicted: smat.FormatDIA, Confidence: 1, CacheHit: true, StructureHit: true,
		Chosen: smat.FormatDIA, Kernel: "dia_blocked_parallel",
	})
	deferred := smat.Decision{
		PredictedOK: true, Predicted: smat.FormatDIA, Confidence: 0.93,
		Chosen: smat.FormatCSR, Kernel: "csr_parallel_nnz", Asymptotic: smat.FormatDIA, ConvertAt: 5,
	}
	fmt.Println(deferred)
	deferred.Chosen, deferred.Kernel = smat.FormatDIA, "dia_parallel"
	fmt.Println(deferred)
	// Output:
	// predicted (confidence 0.97), column pass skipped: ELL via ell_width_parallel
	// execute-and-measure fallback: CSR via csr_parallel_nnz_unroll4, COO breaks even at 40 SpMVs (hint 10: serving tuned CSR), overhead 6.5x CSR-SpMV
	// cache hit (confidence 1.00), structure hit: DIA via dia_blocked_parallel
	// predicted (confidence 0.93): CSR via csr_parallel_nnz, serving tuned CSR until call 5, then DIA
	// predicted (confidence 0.93): DIA via dia_parallel, converted at call 5
}

// ExampleReadMatrixMarket loads a matrix from the Matrix Market exchange
// format.
func ExampleReadMatrixMarket() {
	mtx := `%%MatrixMarket matrix coordinate real general
2 2 2
1 1 4
2 2 9
`
	a, err := smat.ReadMatrixMarket(strings.NewReader(mtx))
	if err != nil {
		panic(err)
	}
	rows, cols := a.Dims()
	fmt.Println(rows, cols, a.NNZ())
	// Output: 2 2 2
}

// ExampleMatrix_Features extracts the paper's Table 2 structure parameters.
func ExampleMatrix_Features() {
	var entries []smat.Entry[float64]
	for i := 0; i < 100; i++ {
		entries = append(entries, smat.Entry[float64]{Row: i, Col: i, Val: 1})
	}
	a, err := smat.FromEntries(100, 100, entries)
	if err != nil {
		panic(err)
	}
	f := a.Features()
	fmt.Println(f.Ndiags, f.NTdiagsRatio, f.ERDIA)
	// Output: 1 1 1
}
