package solve

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"smat/internal/autotune"
	"smat/internal/gen"
	"smat/internal/kernels"
	"smat/internal/matrix"
	"smat/internal/mining"
)

// pooledOp is a CSR operator that lends a real kernels.Pool to the solvers:
// the product and the vector phases share the pool's workers, as they do
// under a tuned operator. during, when set, runs inside every chunk of a
// vector phase.
type pooledOp struct {
	a      *matrix.CSR[float64]
	pool   *kernels.Pool[float64]
	rows   []int
	during func(chunk int)
}

func newPooledOp(a *matrix.CSR[float64], threads int) *pooledOp {
	return &pooledOp{a: a, pool: kernels.NewPool[float64](threads), rows: chunkBounds(a.Rows, threads)}
}

func (o *pooledOp) MulVec(x, y []float64) {
	a := o.a
	o.pool.RunChunks(o.rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			var s float64
			for jj := a.RowPtr[r]; jj < a.RowPtr[r+1]; jj++ {
				s += a.Vals[jj] * x[a.ColIdx[jj]]
			}
			y[r] = s
		}
	})
}

func (o *pooledOp) RunChunks(bounds []int, fn func(chunk, lo, hi int)) {
	if o.during == nil {
		o.pool.RunChunks(bounds, fn)
		return
	}
	o.pool.RunChunks(bounds, func(c, lo, hi int) {
		o.during(c)
		fn(c, lo, hi)
	})
}

func (o *pooledOp) Threads() int { return o.pool.Threads() }

func TestChunkBoundsCoverRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 4095, 8192, 100003} {
		for threads := 1; threads <= 8; threads++ {
			b := chunkBounds(n, threads)
			if len(b) != threads+1 || b[0] != 0 || b[threads] != n {
				t.Fatalf("n=%d threads=%d: bounds %v do not span [0,%d) in %d chunks", n, threads, b, n, threads)
			}
			for c := 1; c <= threads; c++ {
				if b[c] < b[c-1] {
					t.Fatalf("n=%d threads=%d: bounds %v not monotone", n, threads, b)
				}
				if c < threads && b[c]%8 != 0 && b[c] != n {
					t.Fatalf("n=%d threads=%d: interior edge %d not 8-aligned", n, threads, b[c])
				}
				if size, even := b[c]-b[c-1], (n+threads-1)/threads; size > even+8 {
					t.Fatalf("n=%d threads=%d: chunk %d holds %d elements, an even share is %d", n, threads, c-1, size, even)
				}
			}
		}
	}
}

// TestBindSplitsOnlyPooledAboveCutoff pins who gets more than one chunk: a
// Pooled operator, from the kernels' serial cutoff up.
func TestBindSplitsOnlyPooledAboveCutoff(t *testing.T) {
	a := gen.Laplacian2D5pt[float64](4, 4)
	pooled := newPooledOp(a, 3)
	defer pooled.pool.Close()
	var v Vec[float64]
	for _, c := range []struct {
		op     Operator[float64]
		n      int
		chunks int
	}{
		{csrOp{a}, 1 << 20, 1},
		{pooled, kernels.SerialWork - 1, 1},
		{pooled, kernels.SerialWork, 3},
		{pooled, 0, 1},
	} {
		v.Bind(c.op, c.n)
		if got := len(v.bounds) - 1; got != c.chunks || v.bounds[got] != c.n || len(v.part) != c.chunks {
			t.Errorf("Bind(%T, %d): %d chunks over %v, want %d", c.op, c.n, got, v.bounds, c.chunks)
		}
	}
}

func randVec[T matrix.Float](rng *rand.Rand, n int) []T {
	v := make([]T, n)
	for i := range v {
		v[i] = T(rng.NormFloat64())
	}
	return v
}

// TestFusedPhasesMatchSeparateOnes checks every phase against the unfused
// arithmetic it replaces, at one chunk (where a fused reduction is
// bit-identical to Dot over its output) and on a pool (where only the
// summation order across chunks differs: 1 ulp·√n).
func TestFusedPhasesMatchSeparateOnes(t *testing.T) {
	const n = 20011
	a := gen.Laplacian2D5pt[float64](4, 4)
	for _, threads := range []int{1, 2, 3, 4} {
		op := newPooledOp(a, threads)
		var v Vec[float64]
		v.Bind(op, n)
		if got := len(v.bounds) - 1; got != threads {
			t.Fatalf("threads %d: backend split into %d chunks", threads, got)
		}
		rng := rand.New(rand.NewSource(int64(threads)))
		p, ap, q := randVec[float64](rng, n), randVec[float64](rng, n), randVec[float64](rng, n)
		x, r := randVec[float64](rng, n), randVec[float64](rng, n)
		// A reduction split over chunks may differ from the one-chunk sum by
		// 1 ulp·√n of the sum of its terms' magnitudes.
		near := func(what string, got float64, a, b []float64) {
			t.Helper()
			want, tol := Dot(a, b), 0.0
			if threads > 1 {
				for i := range a {
					tol += math.Abs(a[i] * b[i])
				}
				tol *= 0x1p-52 * math.Sqrt(n)
			}
			if math.Abs(got-want) > tol {
				t.Errorf("threads %d: %s = %v, want %v (tolerance %g)", threads, what, got, want, tol)
			}
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			if !slices.Equal(got, want) {
				t.Errorf("threads %d: %s differs from the unfused update", threads, what)
			}
		}

		near("dot", v.dot(p, ap), p, ap)

		const alpha, omega = 0.37, -1.21
		wantX, wantR := slices.Clone(x), slices.Clone(r)
		for i := range wantX {
			wantX[i] += alpha * p[i]
			wantR[i] -= alpha * ap[i]
		}
		rr := v.cgUpdate(alpha, p, ap, x, r)
		same("cgUpdate x", x, wantX)
		same("cgUpdate r", r, wantR)
		near("cgUpdate ⟨r,r⟩", rr, r, r)

		s := make([]float64, n)
		for i := range wantR {
			wantR[i] = r[i] - ap[i]
		}
		near("Residual ‖s‖²", v.Residual(r, ap, s), wantR, wantR)
		same("Residual s", s, wantR)
		for i := range wantR {
			wantR[i] = r[i] - wantR[i]
		}
		near("Residual onto its own input", v.Residual(r, s, s), wantR, wantR)
		same("Residual onto its own input", s, wantR)

		for i := range wantX {
			wantX[i] += alpha * ap[i]
		}
		v.Axpy(alpha, ap, x)
		same("Axpy", x, wantX)

		wantP := slices.Clone(p)
		for i := range wantP {
			wantP[i] = q[i] + alpha*wantP[i]
		}
		v.xpay(q, alpha, p)
		same("xpay", p, wantP)

		d := randVec[float64](rng, n)
		d[5], d[n-1] = 0, 0
		for i := range wantX {
			if d[i] != 0 {
				wantX[i] += omega * (r[i] - ap[i]) / d[i]
			}
		}
		v.Jacobi(omega, r, ap, d, x)
		same("Jacobi", x, wantX)
		op.pool.Close()
	}
}

// TestFloat32ReducesInFloat64: a float32 accumulator stops counting at 2²⁴;
// the backend's reductions carry float64 partials.
func TestFloat32ReducesInFloat64(t *testing.T) {
	const n = 1 << 15
	a := make([]float32, n)
	for i := range a {
		a[i] = 1
	}
	a[0] = 4096 // a[0]² = 2²⁴: every later +1 is below a float32 sum's resolution
	want := float64(1<<24) + n - 1
	var v Vec[float32]
	v.Bind(nil, n)
	if got := v.dot(a, a); got != want {
		t.Errorf("dot = %v, want %v", got, want)
	}
	zero, r := make([]float32, n), make([]float32, n)
	if got := v.Residual(a, zero, r); got != want {
		t.Errorf("Residual norm² = %v, want %v", got, want)
	}
	if got := v.cgUpdate(1, zero, zero, make([]float32, n), r); got != want {
		t.Errorf("cgUpdate ⟨r,r⟩ = %v, want %v", got, want)
	}
}

// TestPooledCGMatchesSerial runs CG and PCG with their vector phases on a real pool at 1, 2 and 4 threads. Against the one-chunk solve
// only the summation order across chunks differs, so the solutions agree to
// the oracle's conditioning-scaled bound and the iteration counts to ±2;
// at a fixed thread count nothing differs, so two runs are bit-identical.
func TestPooledCGMatchesSerial(t *testing.T) {
	const tol = 1e-9
	spd, b, _ := spdSystem(t, 96, 3) // 9216 unknowns: above the serial cutoff
	diag := diagPrec{spd.Diagonal()}

	type solver struct {
		name string
		a    *matrix.CSR[float64]
		b    []float64
		run  func(a Operator[float64], b, x []float64) (Stats, error)
	}
	solvers := []solver{
		{"CG", spd, b, func(a Operator[float64], b, x []float64) (Stats, error) {
			return CG[float64](a, nil, b, x, tol, 2000)
		}},
		{"PCG", spd, b, func(a Operator[float64], b, x []float64) (Stats, error) {
			return CG[float64](a, diag, b, x, tol, 2000)
		}},
	}
	for _, s := range solvers {
		want := make([]float64, len(s.b))
		ref, err := s.run(csrOp{s.a}, s.b, want)
		if err != nil || !ref.Converged {
			t.Fatalf("%s reference: stats %+v err %v", s.name, ref, err)
		}
		for _, threads := range []int{1, 2, 4} {
			op := newPooledOp(s.a, threads)
			var runs [2][]float64
			var stats [2]Stats
			for i := range runs {
				runs[i] = make([]float64, len(s.b))
				if stats[i], err = s.run(op, s.b, runs[i]); err != nil || !stats[i].Converged {
					t.Fatalf("%s at %d threads: stats %+v err %v", s.name, threads, stats[i], err)
				}
			}
			if pooled := op.pool.Stats().Pooled; (threads > 1) != (pooled > 0) {
				t.Errorf("%s at %d threads: %d pooled dispatches", s.name, threads, pooled)
			}
			op.pool.Close()
			if !slices.Equal(runs[0], runs[1]) || stats[0] != stats[1] {
				t.Errorf("%s at %d threads: two runs differ (stats %+v vs %+v)", s.name, threads, stats[0], stats[1])
			}
			if d := stats[0].Iterations - ref.Iterations; d < -2 || d > 2 {
				t.Errorf("%s at %d threads: %d iterations, one-chunk solve took %d", s.name, threads, stats[0].Iterations, ref.Iterations)
			}
			var d2, w2 float64
			for i := range want {
				d2 += (runs[0][i] - want[i]) * (runs[0][i] - want[i])
				w2 += want[i] * want[i]
			}
			if math.Sqrt(d2) > 1e4*tol*(1+math.Sqrt(w2)) {
				t.Errorf("%s at %d threads: solution differs from the one-chunk solve by %g (scale %g)", s.name, threads, math.Sqrt(d2), math.Sqrt(w2))
			}
			if threads == 1 && !slices.Equal(runs[0], want) {
				t.Errorf("%s at 1 thread: a one-thread pool must solve exactly as no pool", s.name)
			}
		}
	}
}

// TestVectorPhaseFallsBackInOrder: a pool that declines the dispatch — held
// by another caller, or closed — changes neither a phase's bits nor the
// goroutine count: the chunks run on the caller, in chunk order.
func TestVectorPhaseFallsBackInOrder(t *testing.T) {
	const n = 3 * kernels.SerialWork
	op := newPooledOp(gen.Laplacian2D5pt[float64](4, 4), 3)
	defer op.pool.Close()
	var v Vec[float64]
	v.Bind(op, n)
	rng := rand.New(rand.NewSource(5))
	p, ap := randVec[float64](rng, n), randVec[float64](rng, n)
	x0, r0 := randVec[float64](rng, n), randVec[float64](rng, n)

	// Phase results with the pool free.
	wantDot := v.dot(p, ap)
	wantX, wantR := slices.Clone(x0), slices.Clone(r0)
	wantRR := v.cgUpdate(0.3, p, ap, wantX, wantR)
	if st := op.pool.Stats(); st.Pooled != 2 || st.Overflow != 0 {
		t.Fatalf("free pool: stats %+v, want both phases pooled", st)
	}

	declined := func(when string) {
		t.Helper()
		var order []int
		var during []int
		op.during = func(c int) {
			order = append(order, c) // unsynchronised on purpose: -race flags a chunk off the caller
			during = append(during, runtime.NumGoroutine())
		}
		defer func() { op.during = nil }()
		before := runtime.NumGoroutine()
		overflow := op.pool.Stats().Overflow
		gotDot := v.dot(p, ap)
		x, r := slices.Clone(x0), slices.Clone(r0)
		gotRR := v.cgUpdate(0.3, p, ap, x, r)
		if gotDot != wantDot || gotRR != wantRR || !slices.Equal(x, wantX) || !slices.Equal(r, wantR) {
			t.Errorf("%s: phase results differ from the free pool's (dot %v vs %v, ⟨r,r⟩ %v vs %v)", when, gotDot, wantDot, gotRR, wantRR)
		}
		if !slices.Equal(order, []int{0, 1, 2, 0, 1, 2}) {
			t.Errorf("%s: chunks ran in order %v, want 0 1 2 per phase", when, order)
		}
		for _, g := range during {
			if g != before {
				t.Errorf("%s: %d goroutines while a chunk ran, %d before the phase", when, g, before)
			}
		}
		if got := op.pool.Stats().Overflow - overflow; got != 2 {
			t.Errorf("%s: %d dispatches counted as overflow, want 2", when, got)
		}
	}

	// Another caller holds the pool: its chunk 0 (on its own goroutine)
	// blocks until released, with the dispatch lock held.
	inside, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		op.pool.RunChunks([]int{0, 1, 2}, func(c, _, _ int) {
			if c == 0 {
				close(inside)
				<-release
			}
		})
	}()
	<-inside
	declined("busy pool")
	close(release)
	<-done

	op.pool.Close()
	declined("closed pool")
}

// tunedOp returns a tuned CSR operator on a tuner of up to two threads —
// the production Pooled implementation.
func tunedOp(t *testing.T, a *matrix.CSR[float64]) (*autotune.Operator[float64], *autotune.Tuner[float64]) {
	t.Helper()
	model := autotune.NewModel(0.5, 8, autotune.ModelClass{
		Threads: 2,
		Kernels: map[string]string{},
		Ruleset: &mining.Ruleset{Default: int(matrix.FormatCSR)},
	})
	tuner := autotune.New[float64](model, autotune.Config{Threads: 2})
	op, _, err := tuner.TuneOpts(a, autotune.TuneOptions{})
	if err != nil {
		tuner.Close()
		t.Fatal(err)
	}
	return op, tuner
}

// TestCGIterationAllocs: on a warmed scratch a whole solve through a tuned
// operator — products and vector phases on its pool — allocates nothing.
func TestCGIterationAllocs(t *testing.T) {
	spd, b, _ := spdSystem(t, 96, 3)
	op, tuner := tunedOp(t, spd)
	defer tuner.Close()
	var ws CGScratch[float64]
	x := make([]float64, len(b))
	solve := func() {
		clear(x)
		if st, err := CGWith[float64](&ws, op, nil, b, x, 1e-8, 2000); err != nil || !st.Converged {
			t.Fatalf("CG: stats %+v err %v", st, err)
		}
	}
	solve() // reserves the scratch, starts the pool
	if avg := testing.AllocsPerRun(3, solve); avg != 0 {
		t.Errorf("CGWith on a warmed scratch allocates %.1f times per solve, want 0", avg)
	}
	if th := tuner.Threads(); th > 1 && tuner.Stats().Pool.Pooled == 0 {
		t.Errorf("%d-thread tuner: no pooled dispatch during the solves", th)
	}

}
