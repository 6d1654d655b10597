package autotune_test

import (
	"errors"
	"math/rand"
	"testing"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/matrix"
)

// TestTuneLazyDefersConfidentLeaders: TuneLazy defers exactly the unhinted
// leader whose confident pick costs a conversion — and then serves tuned CSR,
// converts nothing and counts one deferred tune. A CSR pick, an ELL view of
// the input, a measured winner, a cache hit and a hinted call tune as TuneOpts
// does, and TuneOpts never defers.
func TestTuneLazyDefersConfidentLeaders(t *testing.T) {
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	band := gen.MultiDiagonal[float64](3000, []int{-1, 0, 2}, rng(1))
	for _, c := range []struct {
		name   string
		format matrix.Format
		conf   float64
		m      *matrix.CSR[float64]
		prime  bool // a leader fills the decision cache first
		opts   autotune.TuneOptions
		eager  bool // TuneOpts
		defers bool
	}{
		{name: "DIA pick", format: matrix.FormatDIA, conf: 0.99, m: band, defers: true},
		{name: "COO pick", format: matrix.FormatCOO, conf: 0.99, m: band, defers: true},
		{name: "ELL copy", format: matrix.FormatELL, conf: 0.99, m: halfAndHalf(3000, 2, 4), defers: true},
		{name: "ELL view", format: matrix.FormatELL, conf: 0.99, m: halfAndHalf(3000, 3, 3)},
		{name: "CSR pick", format: matrix.FormatCSR, conf: 0.99, m: band},
		{name: "measured", format: matrix.FormatDIA, conf: 0.30, m: band},
		{name: "cache hit", format: matrix.FormatDIA, conf: 0.99, m: band, prime: true},
		{name: "iteration hint", format: matrix.FormatDIA, conf: 0.99, m: band, opts: autotune.TuneOptions{Iterations: 1 << 20}},
		{name: "format hint", format: matrix.FormatDIA, conf: 0.99, m: band, opts: autotune.TuneOptions{FormatHint: matrix.FormatDIA, HasFormatHint: true}},
		{name: "TuneOpts", format: matrix.FormatDIA, conf: 0.99, m: band, eager: true},
	} {
		tuner := autotune.New[float64](autotune.ModelAlways(c.format, c.conf), autotune.Config{Threads: 2})
		if c.prime {
			if _, _, err := tuner.TuneOpts(c.m, autotune.TuneOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		var op *autotune.Operator[float64]
		var later *autotune.Deferred[float64]
		var err error
		if c.eager {
			op, _, err = tuner.TuneOpts(c.m, c.opts)
		} else {
			op, later, err = tuner.TuneLazy(c.m, c.opts)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		product(t, op, c.m, c.name)
		d := op.Decision()
		switch st := tuner.Stats(); {
		case (later != nil) != c.defers:
			t.Errorf("%s: deferred %v, want %v: %v", c.name, later != nil, c.defers, d)
		case c.defers && (d.Chosen != matrix.FormatCSR || d.Asymptotic != c.format || d.ConvertSec != 0 || st.DeferredTunes != 1):
			t.Errorf("%s: deferred tune serves %v for %v, converted for %gs, %d deferred tunes counted", c.name, d.Chosen, d.Asymptotic, d.ConvertSec, st.DeferredTunes)
		case !c.defers && (d.Chosen != d.Asymptotic && !d.Amortized || st.DeferredTunes != 0):
			t.Errorf("%s: serves %v for %v, %d deferred tunes counted", c.name, d.Chosen, d.Asymptotic, st.DeferredTunes)
		}
		tuner.Close()
	}
}

// TestDeferredScheduleAndDue: Schedule sets ConvertAt from the first call's
// rate, never within the first call, and Due is true for exactly one call —
// the one whose products reach ConvertAt — whatever the batch widths.
func TestDeferredScheduleAndDue(t *testing.T) {
	m := gen.MultiDiagonal[float64](3000, []int{-1, 0, 2}, rand.New(rand.NewSource(1)))
	for _, c := range []struct {
		name  string
		sec   float64 // the first call's seconds
		first int     // its products
		want  int     // ConvertAt
		calls []int   // later calls' products; the last one is due
	}{
		// A product slower than any conversion of 9000 slots: the next one.
		{"slow first call", 1, 1, 2, []int{1}},
		{"slow first batch", 1, 5, 6, []int{1}},
		{"batch past it", 1, 1, 2, []int{7}},
		// A product too fast for the clock: capped, 2³⁰ products on.
		{"unmeasured first call", 0, 1, 1 << 30, []int{1<<30 - 3, 1, 1}},
	} {
		tuner := autotune.New[float64](autotune.ModelAlways(matrix.FormatDIA, 0.99), autotune.Config{Threads: 2})
		op, later, err := tuner.TuneLazy(m, autotune.TuneOptions{})
		if err != nil || later == nil {
			t.Fatalf("%s: no deferred tune (%v)", c.name, err)
		}
		later.Schedule(c.sec, c.first)
		if at := op.Decision().ConvertAt; at != c.want {
			t.Errorf("%s: converts at %d, want %d", c.name, at, c.want)
		}
		for i, k := range c.calls {
			if due, last := later.Due(k), i == len(c.calls)-1; due != last {
				t.Errorf("%s: call %d of %d products due %v", c.name, i+2, k, due)
			}
		}
		for i := 0; i < 3; i++ {
			if later.Due(1) {
				t.Errorf("%s: due again after the converting call", c.name)
			}
		}
		tuner.Close()
	}
}

// TestDeferredConvert: the converted operator serves the pick, records the
// conversion and keeps ConvertAt, and Stats counts the swap; the tuned-CSR
// operator it replaces is unchanged.
func TestDeferredConvert(t *testing.T) {
	m := gen.MultiDiagonal[float64](3000, []int{-1, 0, 2}, rand.New(rand.NewSource(1)))
	tuner := autotune.New[float64](autotune.ModelAlways(matrix.FormatDIA, 0.99), autotune.Config{Threads: 2})
	defer tuner.Close()
	op, later, err := tuner.TuneLazy(m, autotune.TuneOptions{})
	if err != nil || later == nil {
		t.Fatalf("no deferred tune (%v)", err)
	}
	later.Schedule(1, 1)
	conv := later.Convert()
	product(t, conv, m, "converted")
	d := conv.Decision()
	if d.Chosen != matrix.FormatDIA || d.ConvertAt != 2 || d.ConvertSec <= 0 || d.ConvertStored != 3*3000 || d.ConvertErr != nil {
		t.Errorf("converted: %v (%d slots in %gs, at call %d, err %v)", d, d.ConvertStored, d.ConvertSec, d.ConvertAt, d.ConvertErr)
	}
	if st := tuner.Stats(); st.DeferredTunes != 1 || st.DeferredSwaps != 1 {
		t.Errorf("%d deferred tunes, %d swaps; want 1 and 1", st.DeferredTunes, st.DeferredSwaps)
	}
	if op.Format() != matrix.FormatCSR || op.Decision().Chosen != matrix.FormatCSR {
		t.Errorf("the deferred operator now serves %v", op.Format())
	}
}

// TestDeferredCollisionKeepsCSR plants, under a matrix's signature, the record
// of another pattern of its shape and entry count — what a 64-bit collision
// would leave there — with no decision for it: the confident leader defers,
// and the conversion at swap time is the first to read the record. It
// refuses it (matrix.ErrStructureMismatch); the handle's next operator
// serves tuned CSR with the error on its decision, and every product is
// right. No swap is counted.
func TestDeferredCollisionKeepsCSR(t *testing.T) {
	const n = 4000
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	for _, c := range []struct {
		name     string
		format   matrix.Format
		m, other *matrix.CSR[float64]
	}{
		{"DIA", matrix.FormatDIA, gen.MultiDiagonal[float64](n, []int{-1, 0, 2}, rng(1)), gen.MultiDiagonal[float64](n, []int{-2, 0, 1}, rng(2))},
		{"ELL too wide", matrix.FormatELL, halfAndHalf(n, 3, 3), halfAndHalf(n, 2, 4)},
		{"ELL too narrow", matrix.FormatELL, halfAndHalf(n, 2, 4), halfAndHalf(n, 3, 3)},
	} {
		sig, err := c.m.Sign()
		if err != nil {
			t.Fatal(err)
		}
		tuner := autotune.New[float64](autotune.ModelAlways(c.format, 0.99), autotune.Config{Threads: 2})
		autotune.PlantStructure(tuner, c.m, c.other, false)
		op, later, err := tuner.TuneLazy(c.m, autotune.TuneOptions{Pattern: sig})
		if err != nil || later == nil {
			t.Fatalf("%s: no deferred tune (%v)", c.name, err)
		}
		if d := op.Decision(); !d.StructureHit {
			t.Fatalf("%s: the planted record was not recalled: %v", c.name, d)
		}
		product(t, op, c.m, c.name+": before the swap")
		later.Schedule(1, 1)
		conv := later.Convert()
		product(t, conv, c.m, c.name+": after the failed swap")
		d := conv.Decision()
		if conv.Format() != matrix.FormatCSR || d.Chosen != matrix.FormatCSR || !errors.Is(d.ConvertErr, matrix.ErrStructureMismatch) {
			t.Errorf("%s: after the failed swap: serves %v, error %v", c.name, conv.Format(), d.ConvertErr)
		}
		if st := tuner.Stats(); st.DeferredSwaps != 0 {
			t.Errorf("%s: %d swaps counted for a failed conversion", c.name, st.DeferredSwaps)
		}
		tuner.Close()
	}
}
