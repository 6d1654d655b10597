// The deferred conversion through the public API: a first CSRSpMV without
// options on a structure the tuner has not decided serves tuned CSR when the
// model's confident pick costs a conversion, and the handle converts once,
// before product Decision.ConvertAt; every other first use converts before it
// returns.
package smat_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"smat"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// handle wraps m's arrays in a new signed handle.
func handle(t testing.TB, m *matrix.CSR[float64]) *smat.Matrix[float64] {
	t.Helper()
	a, err := smat.NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// input is a fixed x for m.
func input(m *matrix.CSR[float64]) []float64 {
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64((i*13)%31-15) / 8
	}
	return x
}

// TestDeferredLeaderServesTunedCSR: a one-call handle whose confident pick is
// DIA serves tuned CSR — bit for bit what a tuned-CSR operator of the same
// tuner computes — converts nothing, and says so.
func TestDeferredLeaderServesTunedCSR(t *testing.T) {
	m := gen.Laplacian2D5pt[float64](100, 100)
	tuner := smat.NewTuner[float64](smat.HeuristicModel(), smat.WithThreads(2))
	defer tuner.Close()
	x, y, want := input(m), make([]float64, m.Rows), make([]float64, m.Rows)
	a := handle(t, m)
	if err := tuner.CSRSpMV(a, x, y); err != nil {
		t.Fatal(err)
	}
	d := a.Operator().Decision()
	if !d.PredictedOK || d.CacheHit || d.Asymptotic != smat.FormatDIA || d.Chosen != smat.FormatCSR ||
		d.ConvertSec != 0 || d.ConvertStored != 0 || d.ConvertAt < 2 || d.ConvertErr != nil {
		t.Fatalf("first call: %v (converted %d slots in %gs, at call %d)", d, d.ConvertStored, d.ConvertSec, d.ConvertAt)
	}
	csr, err := tuner.Tune(handle(t, m), smat.WithFormatHint(smat.FormatCSR))
	if err != nil {
		t.Fatal(err)
	}
	csr.MulVec(x, want)
	for i := range y {
		if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
			t.Fatalf("y[%d] = %v, tuned CSR gives %v", i, y[i], want[i])
		}
	}
	if st := tuner.Stats(); st.DeferredTunes != 1 || st.DeferredSwaps != 0 {
		t.Errorf("%d deferred tunes, %d swaps; want 1 and 0", st.DeferredTunes, st.DeferredSwaps)
	}
	if want := fmt.Sprintf("serving tuned CSR until call %d, then DIA", d.ConvertAt); !strings.Contains(d.String(), want) {
		t.Errorf("decision %q does not say %q", d, want)
	}
}

// TestDeferredSwapsOnceAtConvertAt: the handle serves tuned CSR up to product
// ConvertAt − 1 and the pick from the call that runs product ConvertAt on,
// converting once, with no cache lookup beyond the first call's; a batch of
// width k counts as k products. Every product is checked.
func TestDeferredSwapsOnceAtConvertAt(t *testing.T) {
	m := gen.Laplacian2D5pt[float64](100, 100)
	x := input(m)
	for _, k := range []int{1, 3} {
		tuner := smat.NewTuner[float64](smat.HeuristicModel(), smat.WithThreads(2))
		a := handle(t, m)
		xb, yb := make([]float64, m.Cols*k), make([]float64, m.Rows*k)
		for c, v := range x {
			for j := 0; j < k; j++ {
				xb[c*k+j] = v
			}
		}
		y := make([]float64, m.Rows)
		products := 0
		call := func() smat.Decision {
			t.Helper()
			for i := range yb {
				yb[i] = math.NaN()
			}
			var err error
			if k == 1 {
				err = tuner.CSRSpMV(a, xb, yb)
			} else {
				err = tuner.CSRSpMVBatch(a, xb, yb, k)
			}
			if err != nil {
				t.Fatal(err)
			}
			products += k
			for j := 0; j < k; j++ {
				for r := range y {
					y[r] = yb[r*k+j]
				}
				if err := oracle.CheckProduct(m, x, y, fmt.Sprintf("k=%d, product %d", k, products-k+j+1)); err != nil {
					t.Fatal(err)
				}
			}
			return a.Operator().Decision()
		}
		at := call().ConvertAt
		if at <= k {
			t.Fatalf("k=%d: converts at product %d, within the first call", k, at)
		}
		for products+k < at {
			if d := call(); d.Chosen != smat.FormatCSR {
				t.Fatalf("k=%d: product %d of %d served %v", k, products, at, d.Chosen)
			}
		}
		d := call()
		if d.Chosen != smat.FormatDIA || d.ConvertAt != at || d.ConvertSec <= 0 || d.ConvertStored != 5*m.Rows {
			t.Fatalf("k=%d: the call running product %d served %v (converted %d slots in %gs)", k, at, d, d.ConvertStored, d.ConvertSec)
		}
		if !strings.Contains(d.String(), fmt.Sprintf("converted at call %d", at)) {
			t.Errorf("k=%d: decision %q does not name the call it converted at", k, d)
		}
		op := a.Operator()
		for i := 0; i < 4; i++ {
			call()
		}
		if st := tuner.Stats(); a.Operator() != op || st.DeferredTunes != 1 || st.DeferredSwaps != 1 || st.Hits+st.Misses != 1 {
			t.Errorf("k=%d: %d deferred tunes, %d swaps, %d cache lookups; want one of each", k, st.DeferredTunes, st.DeferredSwaps, st.Hits+st.Misses)
		}
		tuner.Close()
	}
}

// TestEagerFirstUses: a first use whose conversion is already paid for, or
// whose caller asked for it, converts before it returns — an ELL view of the
// input's own arrays, a measured winner, a decision-cache hit, Tune, an
// iteration hint, a format hint — and no tune is deferred.
func TestEagerFirstUses(t *testing.T) {
	stencil := gen.Laplacian2D5pt[float64](100, 100)
	unsure := smat.HeuristicModel()
	unsure.ConfidenceThreshold = 0.999
	for _, c := range []struct {
		name  string
		model *smat.Model
		m     *matrix.CSR[float64]
		prime bool // a first handle on the pattern fills the decision cache
		tune  bool // Tune instead of CSRSpMV
		opts  []smat.TuneOption
		check func(d smat.Decision) bool
	}{
		{"ELL view", smat.HeuristicModel(), gen.ConstantDegree[float64](3000, 3, rand.New(rand.NewSource(2))), false, false, nil,
			func(d smat.Decision) bool { return d.Chosen == smat.FormatELL && d.ConvertStored == 3*3000 }},
		{"measured", unsure, stencil, false, false, nil,
			func(d smat.Decision) bool { return d.UsedFallback && d.Chosen == d.Asymptotic }},
		{"cache hit", smat.HeuristicModel(), stencil, true, false, nil,
			func(d smat.Decision) bool { return d.CacheHit && d.Chosen == smat.FormatDIA && d.ConvertSec > 0 }},
		{"Tune", smat.HeuristicModel(), stencil, false, true, nil,
			func(d smat.Decision) bool { return d.Chosen == smat.FormatDIA && d.ConvertSec > 0 }},
		// The leader converts to probe the cost, whatever the payoff stage
		// then serves.
		{"iteration hint", smat.HeuristicModel(), stencil, false, false, []smat.TuneOption{smat.WithIterations(1 << 20)},
			func(d smat.Decision) bool { return d.Asymptotic == smat.FormatDIA && d.ConvertSec > 0 }},
		{"format hint", smat.HeuristicModel(), stencil, false, false, []smat.TuneOption{smat.WithFormatHint(smat.FormatDIA)},
			func(d smat.Decision) bool { return d.Chosen == smat.FormatDIA && d.ConvertSec > 0 }},
	} {
		tuner := smat.NewTuner[float64](c.model, smat.WithThreads(2))
		x, y := input(c.m), make([]float64, c.m.Rows)
		if c.prime {
			if err := tuner.CSRSpMV(handle(t, c.m), x, y); err != nil {
				t.Fatal(err)
			}
		}
		deferred := tuner.Stats().DeferredTunes
		a := handle(t, c.m)
		var err error
		if c.tune {
			_, err = tuner.Tune(a, c.opts...)
		} else {
			err = tuner.CSRSpMV(a, x, y, c.opts...)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := a.Operator().Decision(); !c.check(d) || d.ConvertAt != 0 || tuner.Stats().DeferredTunes != deferred {
			t.Errorf("%s: %v (converted %d slots in %gs, at call %d)", c.name, d, d.ConvertStored, d.ConvertSec, d.ConvertAt)
		}
		tuner.Close()
	}
}

// TestDeferredHandleAllocatesNothing extends the steady state's zero-allocation
// contract to CSRSpMV on a handle: ahead of its deferred conversion, where each
// call counts its product, and after it.
func TestDeferredHandleAllocatesNothing(t *testing.T) {
	m := gen.Laplacian2D5pt[float64](100, 100)
	tuner := smat.NewTuner[float64](smat.HeuristicModel(), smat.WithThreads(2))
	defer tuner.Close()
	a := handle(t, m)
	x, y := input(m), make([]float64, m.Rows)
	call := func() {
		if err := tuner.CSRSpMV(a, x, y); err != nil {
			t.Fatal(err)
		}
	}
	call()
	if !smat.HoldConversion(a) {
		t.Fatal("the first call deferred no conversion")
	}
	if n := testing.AllocsPerRun(50, call); n != 0 {
		t.Errorf("CSRSpMV ahead of the conversion: %v allocations per call", n)
	}
	if tuner.Stats().DeferredSwaps != 0 {
		t.Fatal("the held handle converted")
	}

	b := handle(t, m)
	call = func() {
		if err := tuner.CSRSpMV(b, x, y); err != nil {
			t.Fatal(err)
		}
	}
	call()
	for n := 1; n < b.Operator().Decision().ConvertAt; n++ {
		call()
	}
	if d := b.Operator().Decision(); d.Chosen != smat.FormatDIA {
		t.Fatalf("not converted past call %d: %v", d.ConvertAt, d)
	}
	if n := testing.AllocsPerRun(50, call); n != 0 {
		t.Errorf("CSRSpMV after the conversion: %v allocations per call", n)
	}
}
