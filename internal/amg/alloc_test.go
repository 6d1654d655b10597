package amg

import (
	"slices"
	"testing"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// TestVCycleSteadyStateAllocs pins the satellite contract: once the
// hierarchy is set up, a V-cycle runs entirely in the per-level and
// per-factorisation workspaces — zero allocations per cycle.
func TestVCycleSteadyStateAllocs(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](24, 24)
	h, err := Setup(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	h.VCycle(b, x) // warm
	if avg := testing.AllocsPerRun(20, func() { h.VCycle(b, x) }); avg != 0 {
		t.Errorf("steady-state V-cycle allocates %.1f times per run, want 0", avg)
	}
}

// TestSolvePCGSteadyStateAllocs pins the hoisted CG scratch: after the
// first solve through a hierarchy, repeated SolvePCG calls reuse it.
func TestSolvePCGSteadyStateAllocs(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](16, 16)
	h, err := Setup(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%5) - 2
	}
	h.SolvePCG(b, x, 1e-8, 50) // warm: reserves the scratch
	if avg := testing.AllocsPerRun(5, func() {
		clear(x)
		h.SolvePCG(b, x, 1e-8, 50)
	}); avg != 0 {
		t.Errorf("steady-state SolvePCG allocates %.1f times per run, want 0", avg)
	}
}

// TestTunedHierarchyCycleOnPool binds tuned operators — which lend the cycle
// their worker pool — and checks the contract of the pooled vector phases:
// the cycle's sweeps are dispatched on the pool, agree with the serial
// hierarchy's to rounding, repeat bit for bit, and still allocate nothing.
func TestTunedHierarchyCycleOnPool(t *testing.T) {
	a := gen.Laplacian2D9pt[float64](100, 100) // 10000 unknowns: the fine level is above the serial cutoff
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	serial, err := Setup(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	ref := serial.SolvePCG(b, want, 1e-8, 100)

	model := autotune.NewModel(0.5, 8, autotune.ModelClass{
		Threads: 2,
		Kernels: map[string]string{},
		Ruleset: &mining.Ruleset{Default: int(matrix.FormatCSR)},
	})
	tuner := autotune.New[float64](model, autotune.Config{Threads: 2})
	defer tuner.Close()
	h, err := SetupPooled(a, Options{}, tuner.Pool())
	if err != nil {
		t.Fatal(err)
	}
	err = h.Bind(func(m *matrix.CSR[float64]) (SpMV[float64], error) {
		op, _, err := tuner.TuneOpts(m, autotune.TuneOptions{})
		return op, err
	})
	if err != nil {
		t.Fatal(err)
	}

	x, again := make([]float64, a.Rows), make([]float64, a.Rows)
	before := tuner.Stats().Pool.Pooled
	h.VCycle(b, x)
	// One pre- and one post-smoothing sweep, the residual and the correction
	// on the fine level, each next to its product: eight dispatches at least.
	if got := tuner.Stats().Pool.Pooled - before; tuner.Threads() > 1 && got < 8 {
		t.Errorf("one V-cycle made %d pooled dispatches, want the fine level's 4 products and 4 vector phases", got)
	}
	clear(x)
	st := h.SolvePCG(b, x, 1e-8, 100)
	if !st.Converged || !ref.Converged || st.Iterations < ref.Iterations-1 || st.Iterations > ref.Iterations+1 {
		t.Fatalf("tuned PCG %+v, serial PCG %+v", st, ref)
	}
	for i := range x {
		if d := x[i] - want[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("x[%d] = %v, serial hierarchy got %v", i, x[i], want[i])
		}
	}
	if st2 := h.SolvePCG(b, again, 1e-8, 100); st2 != st || !slices.Equal(again, x) {
		t.Errorf("second solve differs from the first: %+v vs %+v", st2, st)
	}
	if avg := testing.AllocsPerRun(10, func() { h.VCycle(b, x) }); avg != 0 {
		t.Errorf("V-cycle on tuned operators allocates %.1f times per run, want 0", avg)
	}
	if avg := testing.AllocsPerRun(3, func() {
		clear(x)
		h.SolvePCG(b, x, 1e-8, 100)
	}); avg != 0 {
		t.Errorf("SolvePCG on tuned operators allocates %.1f times per run, want 0", avg)
	}
}
