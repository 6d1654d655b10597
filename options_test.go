package smat

import (
	"math/rand"
	"testing"

	"smat/internal/gen"
)

func tridiag(t *testing.T, n int) *Matrix[float64] {
	t.Helper()
	a, err := FromEntries(n, n, diagEntries(n))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWithIterationsRejection: an iteration hint of zero or less is an error
// from the call carrying it — on Tune and on both SpMV entry points.
func TestWithIterationsRejection(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	defer tuner.Close()
	a := tridiag(t, 50)
	x := make([]float64, 50)
	y := make([]float64, 50)
	for _, n := range []int{0, -1, -100} {
		if _, err := tuner.Tune(a, WithIterations(n)); err == nil {
			t.Errorf("Tune accepted WithIterations(%d)", n)
		}
		if err := tuner.CSRSpMV(a, x, y, WithIterations(n)); err == nil {
			t.Errorf("CSRSpMV accepted WithIterations(%d)", n)
		}
		if err := tuner.CSRSpMVBatch(a, x, y, 1, WithIterations(n)); err == nil {
			t.Errorf("CSRSpMVBatch accepted WithIterations(%d)", n)
		}
	}
	// The error must not poison the handle: a clean call still works.
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatalf("clean call after rejected option: %v", err)
	}
}

// TestWithFormatHintPinsFormat: the hint bypasses the model and materialises
// the requested format inline, including for a format the model would never
// pick for this structure.
func TestWithFormatHintPinsFormat(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	defer tuner.Close()
	a := tridiag(t, 500)
	for _, f := range []Format{FormatCSR, FormatCOO, FormatDIA} {
		op, err := tuner.Tune(a, WithFormatHint(f))
		if err != nil {
			t.Fatalf("hint %v: %v", f, err)
		}
		if op.Format() != f {
			t.Errorf("hint %v: operator format %v", f, op.Format())
		}
		d := op.Decision()
		if d.Chosen != f {
			t.Errorf("hint %v: decision %+v", f, d)
		}
	}
}

// TestOptionPrecedence: a call without options tunes asymptotically, one
// carrying WithIterations is weighed against its hint, and WithFormatHint
// beats WithIterations: the hinted format serves, with no break-even weighed.
func TestOptionPrecedence(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	defer tuner.Close()
	a := tridiag(t, 500)

	op, err := tuner.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := op.Decision().IterationHint; got != 0 {
		t.Errorf("no option: IterationHint = %d, want 0", got)
	}

	op, err = tuner.Tune(a, WithIterations(31))
	if err != nil {
		t.Fatal(err)
	}
	if got := op.Decision().IterationHint; got != 31 {
		t.Errorf("per-call hint: IterationHint = %d, want 31", got)
	}

	op, err = tuner.Tune(a, WithIterations(2), WithFormatHint(FormatDIA))
	if err != nil {
		t.Fatal(err)
	}
	if d := op.Decision(); d.Chosen != FormatDIA || d.Amortized || d.BreakEvenIters != 0 {
		t.Errorf("format hint under WithIterations(2): %v, want DIA served with no break-even", d)
	}
}

// TestOptionKeyedHandleSlot: the operator cached on the handle is keyed by
// the effective options — changing them re-tunes instead of serving the
// previous operator, and repeating them reuses the slot.
func TestOptionKeyedHandleSlot(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	defer tuner.Close()
	a := tridiag(t, 500)
	x := make([]float64, 500)
	for i := range x {
		x[i] = float64(i % 3)
	}
	y := make([]float64, 500)

	if err := tuner.CSRSpMV(a, x, y, WithFormatHint(FormatCOO)); err != nil {
		t.Fatal(err)
	}
	if got := a.Operator().Format(); got != FormatCOO {
		t.Fatalf("hinted call cached %v, want COO", got)
	}
	op1 := a.Operator()
	if err := tuner.CSRSpMV(a, x, y, WithFormatHint(FormatCOO)); err != nil {
		t.Fatal(err)
	}
	if a.Operator() != op1 {
		t.Error("identical options re-tuned the handle")
	}
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatal(err)
	}
	if a.Operator() == op1 {
		t.Error("option change did not re-tune the handle")
	}
	if got := a.Operator().Format(); got == FormatCOO {
		t.Error("asymptotic re-tune kept the hinted COO format")
	}
}

// TestIterationHintServesCorrectly: end-to-end smoke over the amortised
// path — a short-lived matrix keeps computing correct products whatever the
// break-even verdict was.
func TestIterationHintServesCorrectly(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	defer tuner.Close()
	m := gen.MultiDiagonal[float64](1200, []int{-1, 0, 1}, rand.New(rand.NewSource(9)))
	a := &Matrix[float64]{csr: m}
	x := make([]float64, 1200)
	for i := range x {
		x[i] = float64(i%5) + 0.25
	}
	got := make([]float64, 1200)
	want := make([]float64, 1200)
	m.ToDense().MulVec(x, want)
	for _, opts := range [][]TuneOption{
		{WithIterations(2)},
		{WithIterations(1 << 20)},
	} {
		if err := tuner.CSRSpMV(a, x, got, opts...); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("wrong product at %d: got %g want %g", i, got[i], want[i])
			}
		}
	}
}
