package smat

import (
	"math/rand"
	"sync"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
	"smat/internal/oracle"
)

// TestConcurrentCSRSpMVSharedAndDistinct hammers one Tuner from many
// goroutines on a shared matrix handle and on per-goroutine handles,
// checking every result. Run under `go test -race` it is the concurrency
// contract of the public API: 16 goroutines × 80 iterations = 1280
// concurrent CSRSpMV calls.
func TestConcurrentCSRSpMVSharedAndDistinct(t *testing.T) {
	const (
		goroutines = 16
		iters      = 80
		n          = 400
	)
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2), WithCacheSize(256))

	shared, err := FromEntries(n, n, diagEntries(n))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%7) + 1
	}
	wantShared := make([]float64, n)
	shared.CSR().ToDense().MulVec(x, wantShared)

	// Per-goroutine matrices: each goroutine owns a random matrix with its
	// own expected result.
	own := make([]*Matrix[float64], goroutines)
	wantOwn := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		m := gen.RandomUniform[float64](n, n, 5, rand.New(rand.NewSource(int64(g+1))))
		a := &Matrix[float64]{csr: m}
		own[g] = a
		wantOwn[g] = make([]float64, n)
		m.ToDense().MulVec(x, wantOwn[g])
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			y := make([]float64, n)
			for i := 0; i < iters; i++ {
				a, want := shared, wantShared
				if i%2 == 1 {
					a, want = own[g], wantOwn[g]
				}
				if err := tuner.CSRSpMV(a, x, y); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				if !matrix.VecApproxEqual(y, want, 1e-9) {
					t.Errorf("goroutine %d iter %d: wrong result", g, i)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	st := tuner.Stats()
	if total := st.Hits + st.Misses + st.Shared; total == 0 {
		t.Error("decision cache saw no traffic")
	}
	if shared.Operator() == nil {
		t.Error("shared handle lost its operator")
	}
}

// TestConcurrentFirstUseTunesOnce checks the per-handle once guard: many
// goroutines issuing the first CSRSpMV on one un-tuned matrix must agree on
// a single tune — one operator, or the tuned-CSR one and, once the handle's
// deferred conversion came due among their calls, the converted one.
func TestConcurrentFirstUseTunesOnce(t *testing.T) {
	const goroutines = 12
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1))
	a, err := FromEntries(600, 600, diagEntries(600))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 600)
	for i := range x {
		x[i] = 1
	}
	start := make(chan struct{})
	ops := make([]*Operator[float64], goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			y := make([]float64, 600)
			if err := tuner.CSRSpMV(a, x, y); err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			ops[g] = a.Operator()
		}(g)
	}
	close(start)
	wg.Wait()
	st := tuner.Stats()
	seen := map[*Operator[float64]]bool{}
	for _, op := range ops {
		seen[op] = true
	}
	if uint64(len(seen)) > 1+st.DeferredSwaps {
		t.Errorf("goroutines saw %d operators after %d deferred conversions: first use was tuned more than once", len(seen), st.DeferredSwaps)
	}
	if st.Misses != 1 || st.DeferredSwaps > st.DeferredTunes {
		t.Errorf("misses = %d, %d swaps of %d deferred tunes; want 1 tuning run for one handle", st.Misses, st.DeferredSwaps, st.DeferredTunes)
	}
}

// TestConcurrentTwoTunersOneMatrix drives one handle from two tuners at
// once. The ownership rule makes each call either reuse its own tuner's
// operator or atomically re-tune; results must stay correct throughout and
// the handle must end up owned by one of the two.
func TestConcurrentTwoTunersOneMatrix(t *testing.T) {
	const n = 300
	t1 := NewTuner[float64](HeuristicModel(), WithThreads(1))
	t2 := NewTuner[float64](HeuristicModel(), WithThreads(2))
	a, err := FromEntries(n, n, diagEntries(n))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 3)
	}
	want := make([]float64, n)
	a.CSR().ToDense().MulVec(x, want)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		tuner := t1
		if g%2 == 1 {
			tuner = t2
		}
		wg.Add(1)
		go func(tuner *Tuner[float64], g int) {
			defer wg.Done()
			y := make([]float64, n)
			for i := 0; i < 25; i++ {
				if err := tuner.CSRSpMV(a, x, y); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !matrix.VecApproxEqual(y, want, 1e-9) {
					t.Errorf("goroutine %d iter %d: wrong result", g, i)
					return
				}
			}
		}(tuner, g)
	}
	wg.Wait()
	if a.Operator() == nil {
		t.Error("handle lost its operator")
	}
}

// TestConcurrentPooledSpMVDistinctMatrices drives one tuner's shared worker
// pool from many goroutines, each multiplying its own large matrix. The
// matrices carry small integer values and distinct columns per row, so
// float64 arithmetic is exact regardless of how the engine partitions or
// schedules the work: results must match the reference computed from the
// entries bit for bit.
func TestConcurrentPooledSpMVDistinctMatrices(t *testing.T) {
	const (
		goroutines = 8
		n          = 2500 // 8 entries/row ⇒ 20k nonzeros, well past the serial cutoff
		perRow     = 8
	)
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(4))
	defer tuner.Close()

	x := make([]float64, n)
	for i := range x {
		x[i] = float64(1 + i%5)
	}
	mats := make([]*Matrix[float64], goroutines)
	wants := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		entries := make([]Entry[float64], 0, n*perRow)
		want := make([]float64, n)
		for r := 0; r < n; r++ {
			for j := 0; j < perRow; j++ {
				c := (r + j*313 + g) % n // distinct columns within each row
				v := float64(1 + (r+j+g)%9)
				entries = append(entries, Entry[float64]{Row: r, Col: c, Val: v})
				want[r] += v * x[c]
			}
		}
		a, err := FromEntries(n, n, entries)
		if err != nil {
			t.Fatal(err)
		}
		mats[g], wants[g] = a, want
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			y := make([]float64, n)
			for i := 0; i < 30; i++ {
				if err := tuner.CSRSpMV(mats[g], x, y); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
				for j := range y {
					if y[j] != wants[g][j] {
						t.Errorf("goroutine %d iter %d: y[%d] = %g, want %g", g, i, j, y[j], wants[g][j])
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	// The calls must have gone through the worker pool (run on it, or found
	// it busy and ran on the caller), not stayed serial under the cutoff.
	if st := tuner.Stats().Pool; tuner.Threads() > 1 && st.Pooled+st.Overflow == 0 {
		t.Errorf("pool counters %+v after %d parallel-sized SpMVs: the engine never dispatched", st, goroutines*30)
	}
}

// TestConcurrentTuneAndStats exercises Tune and Stats racing each other —
// Stats must be callable at any time without synchronisation by the caller.
func TestConcurrentTuneAndStats(t *testing.T) {
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(1), WithCacheSize(8))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			m := gen.RandomUniform[float64](200+i*10, 200+i*10, 4, rand.New(rand.NewSource(int64(i))))
			a := &Matrix[float64]{csr: m}
			if _, err := tuner.Tune(a); err != nil {
				t.Errorf("Tune: %v", err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
			_ = tuner.Stats()
		}
	}
}

// TestConcurrentResubmittedPattern pushes one sparsity pattern through one
// tuner from many goroutines at once, each wrapping it in new handles under its own values,
// half of them in their own copy of the index arrays. All of them read, and
// the first few write, one record of the structure index: it is published
// once per scan and never written after, which is what the race detector
// checks here; every product is checked row by row against the serial
// reference. However the first submissions interleave, one pattern is
// remembered, at most one scan per goroutine ran, and every other
// request was a structure hit.
func TestConcurrentResubmittedPattern(t *testing.T) {
	const (
		goroutines = 12
		iters      = 30
	)
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	defer tuner.Close()

	for _, m := range []*matrix.CSR[float64]{
		gen.MultiDiagonal[float64](3000, []int{-2, 0, 1}, rand.New(rand.NewSource(1))), // DIA: the record's diagonals are read
		gen.ConstantDegree[float64](3000, 4, rand.New(rand.NewSource(2))),              // ELL: its width
	} {
		before := tuner.Stats()
		x := make([]float64, m.Cols)
		for i := range x {
			x[i] = float64((i*13)%31-15) / 8
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rowPtr, colIdx := m.RowPtr, m.ColIdx
				if g%2 == 1 {
					rowPtr, colIdx = append([]int(nil), rowPtr...), append([]int(nil), colIdx...)
				}
				rng := rand.New(rand.NewSource(int64(g)))
				vals, y := make([]float64, m.NNZ()), make([]float64, m.Rows)
				<-start
				for i := 0; i < iters; i++ {
					for j := range vals {
						vals[j] = float64(rng.Intn(15)+1) / 8
					}
					a, err := NewCSR(m.Rows, m.Cols, rowPtr, colIdx, vals)
					if err == nil {
						err = tuner.CSRSpMV(a, x, y)
					}
					if err == nil {
						err = oracle.CheckProduct(a.CSR(), x, y, "concurrent re-submission")
					}
					if err != nil {
						t.Errorf("goroutine %d request %d: %v", g, i, err)
						return
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()

		st := tuner.Stats()
		hits, total := st.StructureHits-before.StructureHits, uint64(goroutines*iters)
		if st.Structures-before.Structures != 1 || hits >= total || hits < total-goroutines {
			t.Errorf("%d patterns remembered and %d structure hits over %d requests from %d goroutines",
				st.Structures-before.Structures, hits, total, goroutines)
		}
	}
}

// TestConcurrentDeferredSwap runs eight goroutines on one handle across its
// deferred conversion: the handle converts once (Stats counts one swap), every
// call's product is right, whichever operator served it, and the handle ends
// serving the pick.
func TestConcurrentDeferredSwap(t *testing.T) {
	const goroutines = 8
	m := gen.Laplacian2D5pt[float64](60, 60)
	tuner := NewTuner[float64](HeuristicModel(), WithThreads(2))
	defer tuner.Close()
	a, err := NewCSR(m.Rows, m.Cols, m.RowPtr, m.ColIdx, m.Vals)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64((i*13)%31-15) / 8
	}
	if err := tuner.CSRSpMV(a, x, make([]float64, m.Rows)); err != nil {
		t.Fatal(err)
	}
	d := a.Operator().Decision()
	if d.ConvertAt == 0 || d.Asymptotic != FormatDIA {
		t.Fatalf("the first call deferred no DIA conversion: %v", d)
	}
	// Enough calls that the goroutines between them run product ConvertAt.
	iters := d.ConvertAt + 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			y := make([]float64, m.Rows)
			<-start
			for i := 0; i < iters; i++ {
				err := tuner.CSRSpMV(a, x, y)
				if err == nil {
					err = oracle.CheckProduct(m, x, y, "concurrent deferred swap")
				}
				if err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if st := tuner.Stats(); st.DeferredTunes != 1 || st.DeferredSwaps != 1 || st.Hits+st.Misses != 1 {
		t.Errorf("%d deferred tunes, %d swaps, %d cache lookups; want one of each", st.DeferredTunes, st.DeferredSwaps, st.Hits+st.Misses)
	}
	if d := a.Operator().Decision(); d.Chosen != FormatDIA {
		t.Errorf("after %d calls the handle serves %v", 1+goroutines*iters, d)
	}
}
