package smat

import (
	"math/rand"
	"testing"

	"smat/internal/gen"
)

// TestDecisionIsTheTuneRecord: the public Decision is the tune's record
// itself, not a subset of it. A fallback tune of an unsigned handle scans the
// whole structure, so its Features are the matrix's, its Measured map lists
// the contenders and its Overhead() is TuneSec over the unit it timed; and
// every path — fallback, cache hit, confident prediction, format hint,
// iteration hint — reports the deprecated BatchCrossover as 2.
func TestDecisionIsTheTuneRecord(t *testing.T) {
	a := &Matrix[float64]{csr: gen.RandomUniform[float64](800, 800, 8, rand.New(rand.NewSource(35)))}
	unsure := HeuristicModel()
	unsure.ConfidenceThreshold = 0.9999
	measuring := NewTuner[float64](unsure, WithThreads(2))
	defer measuring.Close()

	op, err := measuring.Tune(a)
	if err != nil {
		t.Fatal(err)
	}
	d := op.Decision()
	if !d.UsedFallback {
		t.Fatalf("threshold 0.9999 did not force the fallback: %v", d)
	}
	if d.Features != a.Features() {
		t.Errorf("Decision.Features = %+v, want the matrix's %+v", d.Features, a.Features())
	}
	if len(d.Measured) == 0 {
		t.Error("fallback decision lists no measured contender")
	}
	if d.CSRSpMVSec <= 0 || d.Overhead() != d.TuneSec()/d.CSRSpMVSec {
		t.Errorf("Overhead() = %g, want TuneSec %gs / CSRSpMVSec %gs", d.Overhead(), d.TuneSec(), d.CSRSpMVSec)
	}

	predicting := NewTuner[float64](HeuristicModel(), WithThreads(2))
	defer predicting.Close()
	paths := []struct {
		name  string
		tuner *Tuner[float64]
		a     *Matrix[float64]
		opts  []TuneOption
		took  func(Decision) bool // the decision came down this path
	}{
		{"cache hit", measuring, a, nil, func(d Decision) bool { return d.CacheHit }},
		{"prediction", predicting, tridiag(t, 500), nil, func(d Decision) bool { return d.PredictedOK && !d.CacheHit }},
		{"format hint", predicting, a, []TuneOption{WithFormatHint(FormatCOO)}, func(d Decision) bool { return d.Chosen == FormatCOO }},
		{"iteration hint", predicting, a, []TuneOption{WithIterations(1)}, func(d Decision) bool { return d.IterationHint == 1 }},
	}
	if d.BatchCrossover != 2 {
		t.Errorf("fallback: BatchCrossover = %d, want 2", d.BatchCrossover)
	}
	for _, p := range paths {
		op, err := p.tuner.Tune(p.a, p.opts...)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		d := op.Decision()
		if !p.took(d) {
			t.Errorf("%s: the tune took another path: %v", p.name, d)
		}
		if d.BatchCrossover != 2 {
			t.Errorf("%s: BatchCrossover = %d, want 2 (%v)", p.name, d.BatchCrossover, d)
		}
	}
}

// TestWithIterationsRejectsNonPositive: a hint of zero or less fails the call
// that carries it, with the error TuneOptions' validation returns, and leaves
// the handle untuned.
func TestWithIterationsRejectsNonPositive(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	defer tuner.Close()
	a := tridiag(t, 50)
	x, y := make([]float64, 50), make([]float64, 50)
	for _, n := range []int{0, -3} {
		if _, err := tuner.Tune(a, WithIterations(n)); err == nil {
			t.Errorf("Tune with WithIterations(%d): no error", n)
		}
		if err := tuner.CSRSpMV(a, x, y, WithIterations(n)); err == nil {
			t.Errorf("CSRSpMV with WithIterations(%d): no error", n)
		}
	}
	if op := a.Operator(); op != nil {
		t.Errorf("a rejected hint left an operator: %v", op.Decision())
	}
}
