package kernels

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"smat/internal/gen"
	"smat/internal/matrix"
)

// intCSR builds a matrix with small integer values: every kernel then
// computes bit-for-bit the same result regardless of summation order, so
// tests can require exact equality across formats, kernels, and plans.
func intCSR(rng *rand.Rand, rows, cols, perRow int) *matrix.CSR[float64] {
	var ts []matrix.Triple[float64]
	for r := 0; r < rows; r++ {
		for k := 0; k < perRow; k++ {
			ts = append(ts, matrix.Triple[float64]{
				Row: r, Col: rng.Intn(cols), Val: float64(1 + rng.Intn(8)),
			})
		}
	}
	m, err := matrix.FromTriples(rows, cols, ts)
	if err != nil {
		panic(err)
	}
	return m
}

func intVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(1 + i%5)
	}
	return x
}

// engineCases are the structural edge cases of the execution engine:
// asymmetric shapes, empty rows (the COO chunk-clear hazard), single-row and
// single-column matrices, the empty matrix, and a banded matrix big enough
// to take the parallel pooled path in every format.
func engineCases() map[string]*matrix.CSR[float64] {
	rng := rand.New(rand.NewSource(11))
	emptyRows := func() *matrix.CSR[float64] {
		// Entries only in rows r ≡ 3 (mod 7): leading, trailing, and
		// interior runs of empty rows.
		var ts []matrix.Triple[float64]
		for r := 3; r < 300; r += 7 {
			for k := 0; k < 5; k++ {
				ts = append(ts, matrix.Triple[float64]{Row: r, Col: rng.Intn(300), Val: float64(1 + rng.Intn(4))})
			}
		}
		m, err := matrix.FromTriples(300, 300, ts)
		if err != nil {
			panic(err)
		}
		return m
	}
	empty, err := matrix.FromTriples[float64](10, 10, nil)
	if err != nil {
		panic(err)
	}
	return map[string]*matrix.CSR[float64]{
		"asymmetric":      intCSR(rng, 37, 211, 9),
		"tall":            intCSR(rng, 1500, 3, 2),
		"empty-rows":      emptyRows(),
		"single-row":      intCSR(rng, 1, 400, 250),
		"single-col":      intCSR(rng, 400, 1, 1),
		"empty":           empty,
		"banded-parallel": gen.Laplacian2D5pt[float64](150, 150), // 22500 rows, integer values, > SerialWork
	}
}

// TestEveryKernelPlanMatchesBasicBitForBit runs every registered kernel
// (including the HYB extension) under every plan shape — thread counts
// 1/2/3/8, spawned and pooled dispatch, the engine's own plan and the forced
// partition of a Partitioned handle — and requires the result to equal
// csr_basic's bit for bit.
func TestEveryKernelPlanMatchesBasicBitForBit(t *testing.T) {
	lib := fullLibrary[float64]()
	basic := lib.Basic(matrix.FormatCSR)

	for name, m := range engineCases() {
		x := intVector(m.Cols)
		want := make([]float64, m.Rows)
		basic.Run(&Mat[float64]{Format: matrix.FormatCSR, CSR: m}, x, want, 1)

		for _, threads := range []int{1, 2, 3, 8} {
			pool := NewPool[float64](threads)
			for _, f := range allFormats {
				mat, err := Convert(m, f, 0)
				if err != nil {
					continue // fill guard: format unsuitable for this shape
				}
				for _, k := range lib.ForFormat(f) {
					for _, h := range []*Mat[float64]{mat, mat.Partitioned()} {
						for _, pooled := range []bool{false, true} {
							y := make([]float64, m.Rows)
							for i := range y {
								y[i] = 123 // must be fully overwritten
							}
							if pooled {
								k.RunPooled(h, x, y, pool)
							} else {
								k.Run(h, x, y, threads)
							}
							for i := range y {
								if y[i] != want[i] {
									t.Fatalf("%s: kernel %s threads=%d pooled=%v forced=%v: y[%d] = %g, want %g",
										name, k.Name, threads, pooled, h != mat, i, y[i], want[i])
								}
							}
						}
					}
				}
			}
			pool.Close()
		}
	}
}

// TestPoolConcurrentDistinctMatrices hammers one shared pool from many
// goroutines, each running SpMV on its own matrix. Dispatches that find the
// pool busy must overflow to per-call goroutines with correct results; run
// under -race this is the engine's concurrency contract.
func TestPoolConcurrentDistinctMatrices(t *testing.T) {
	const goroutines = 8
	iters := 25
	if testing.Short() {
		iters = 5
	}
	lib := NewLibrary[float64]()
	basic := lib.Basic(matrix.FormatCSR)
	k := lib.Lookup("csr_parallel_nnz_unroll4")
	pool := NewPool[float64](4)
	defer pool.Close()

	mats := make([]*Mat[float64], goroutines)
	xs := make([][]float64, goroutines)
	wants := make([][]float64, goroutines)
	for g := 0; g < goroutines; g++ {
		m := gen.Laplacian2D5pt[float64](60+g, 60+g) // > SerialWork nonzeros, integer values
		mats[g] = &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
		xs[g] = intVector(m.Cols)
		wants[g] = make([]float64, m.Rows)
		basic.Run(mats[g], xs[g], wants[g], 1)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			y := make([]float64, len(wants[g]))
			for i := 0; i < iters; i++ {
				k.RunPooled(mats[g], xs[g], y, pool)
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
	// Every call was one dispatch, and each ran on the workers or overflowed.
	if st := pool.Stats(); st.Pooled+st.Overflow != uint64(goroutines*iters) || st.Pooled == 0 {
		t.Errorf("stats %+v, want %d dispatches in all and some pooled", st, goroutines*iters)
	}
}

// TestSteadyStatePathZeroAlloc is the engine's allocation contract: once the
// plan is cached and the workers are up, every registered single-vector
// kernel of every format, the HYB extension included, performs zero
// heap allocations per pooled call. The fixture is a 2D Laplacian above
// SerialWork, which every format converts without padding much, so the
// parallel kernels dispatch to the workers.
func TestSteadyStatePathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not stable under -race")
	}
	m := gen.Laplacian2D5pt[float64](48, 48) // 11 k nonzeros: parallel path
	lib := fullLibrary[float64]()
	x := intVector(m.Cols)
	y := make([]float64, m.Rows)
	pool := NewPool[float64](4)
	defer pool.Close()
	kernels, partitioned := 0, 0
	for _, f := range allFormats {
		mat, err := Convert(m, f, 0)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		for _, k := range lib.ForFormat(f) {
			k.RunPooled(mat, x, y, pool) // warm: compute the plan, start the workers
			if allocs := testing.AllocsPerRun(20, func() { k.RunPooled(mat, x, y, pool) }); allocs != 0 {
				t.Errorf("%s: %.1f allocs per steady-state call, want 0", k.Name, allocs)
			}
			kernels++
			if k.Strategies&StratParallel != 0 {
				partitioned++
			}
		}
	}
	if kernels != len(lib.byName) {
		t.Errorf("ran %d kernels of the %d registered", kernels, len(lib.byName))
	}
	// Each partitioned kernel ran 22 calls: the warm one, AllocsPerRun's own
	// warm-up and its 20 runs.
	if st := pool.Stats(); st.Pooled < uint64(22*partitioned) {
		t.Errorf("stats %+v: the calls of %d partitioned kernels did not all run on the workers", st, partitioned)
	}
}

// TestPlanWorkBasedCutoff pins the serial-cutoff fix: the decision counts
// estimated work (nonzeros), not rows, in both directions.
func TestPlanWorkBasedCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(4))

	// Few rows, heavy nonzero load: the old rows<2048 guard ran this
	// serially; the plan must parallelise it.
	heavy := intCSR(rng, 1000, 4000, 500) // ~500k nonzeros
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: heavy}
	if p := mat.PlanFor(4); p.Serial {
		t.Errorf("1000x4000 with %d nnz planned serial; want parallel", heavy.NNZ())
	} else {
		if len(p.NNZBounds) < 2 || p.NNZBounds[len(p.NNZBounds)-1] != heavy.Rows {
			t.Errorf("bad NNZBounds %v", p.NNZBounds)
		}
		if len(p.RowBounds) != 5 {
			t.Errorf("RowBounds %v, want 4 chunks", p.RowBounds)
		}
	}

	// Many rows, almost no work: the old guard fanned out goroutines for
	// 100 nonzeros; the plan must run it serially.
	var ts []matrix.Triple[float64]
	for i := 0; i < 100; i++ {
		ts = append(ts, matrix.Triple[float64]{Row: i * 50, Col: i, Val: 1})
	}
	sparse, err := matrix.FromTriples(5000, 5000, ts) // 100 nnz spread over 5000 rows
	if err != nil {
		t.Fatal(err)
	}
	mat = &Mat[float64]{Format: matrix.FormatCSR, CSR: sparse}
	if p := mat.PlanFor(4); !p.Serial {
		t.Errorf("5000x5000 with 100 nnz planned parallel; want serial")
	}

	// Thread count 1 is always serial.
	if p := mat.PlanFor(1); !p.Serial {
		t.Error("threads=1 plan not serial")
	}
}

// TestPlanCachedPerThreadCount checks the plan cache on the Mat handle: same
// thread count reuses the plan, a different count recomputes.
func TestPlanCachedPerThreadCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: intCSR(rng, 2000, 2000, 10)}
	p4 := mat.PlanFor(4)
	if mat.PlanFor(4) != p4 {
		t.Error("PlanFor(4) recomputed a cached plan")
	}
	p2 := mat.PlanFor(2)
	if p2 == p4 {
		t.Error("PlanFor(2) returned the threads=4 plan")
	}
	if p2.Threads != 2 || p4.Threads != 4 {
		t.Errorf("plan thread counts %d/%d, want 2/4", p2.Threads, p4.Threads)
	}
}

// TestCOOChunkRowsCoverEveryRowOnce verifies the folded COO clear: the
// chunk-owned row ranges tile [0, Rows) exactly, including leading,
// interior, and trailing empty rows.
func TestCOOChunkRowsCoverEveryRowOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var ts []matrix.Triple[float64]
	for r := 5; r < 900; r += 3 { // rows 0-4 and 900+ empty, gaps between
		for k := 0; k < 4; k++ {
			ts = append(ts, matrix.Triple[float64]{Row: r, Col: rng.Intn(1000), Val: 1})
		}
	}
	m, err := matrix.FromTriples(1000, 1000, ts)
	if err != nil {
		t.Fatal(err)
	}
	c := m.ToCOO()
	for _, threads := range []int{2, 3, 7, 16} {
		bounds := cooBounds(c, threads)
		covered := make([]int, c.Rows)
		for t := 0; t < len(bounds)-1; t++ {
			rLo, rHi := cooChunkRows(c, bounds[t], bounds[t+1])
			for r := rLo; r < rHi; r++ {
				covered[r]++
			}
		}
		for r, n := range covered {
			if n != 1 {
				t.Fatalf("threads=%d: row %d cleared %d times, want exactly once", threads, r, n)
			}
		}
	}
}

// TestPoolClosedFallsBack checks that kernels dispatched to a closed pool
// still compute correct results via the per-call spawn path.
func TestPoolClosedFallsBack(t *testing.T) {
	lib := NewLibrary[float64]()
	m := gen.Laplacian2D5pt[float64](100, 100)
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	x := intVector(m.Cols)
	want := make([]float64, m.Rows)
	lib.Basic(matrix.FormatCSR).Run(mat, x, want, 1)

	pool := NewPool[float64](4)
	k := lib.Lookup("csr_parallel_nnz")
	y := make([]float64, m.Rows)
	k.RunPooled(mat, x, y, pool) // workers up
	pool.Close()
	clear(y)
	k.RunPooled(mat, x, y, pool) // closed: must fall back, not hang
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("closed-pool fallback: y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	pool.Close() // double Close is a no-op
}

// TestNilPoolRunPooled: a nil pool degrades to the spawn path.
func TestNilPoolRunPooled(t *testing.T) {
	lib := NewLibrary[float64]()
	m := gen.Laplacian2D5pt[float64](50, 50)
	mat := &Mat[float64]{Format: matrix.FormatCSR, CSR: m}
	x := intVector(m.Cols)
	want := make([]float64, m.Rows)
	lib.Basic(matrix.FormatCSR).Run(mat, x, want, 1)
	y := make([]float64, m.Rows)
	lib.Lookup("csr_parallel").RunPooled(mat, x, y, nil)
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("nil-pool RunPooled: y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

// TestPoolThreadsResolvedOnce: NewPool resolves ≤0 to GOMAXPROCS at
// construction (the hoisted lookup) and reports it.
func TestPoolThreadsResolvedOnce(t *testing.T) {
	p := NewPool[float64](0)
	defer p.Close()
	if p.Threads() < 1 {
		t.Errorf("Threads() = %d, want ≥ 1", p.Threads())
	}
	p3 := NewPool[float64](3)
	defer p3.Close()
	if p3.Threads() != 3 {
		t.Errorf("Threads() = %d, want 3", p3.Threads())
	}
}

func BenchmarkSpMVSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	workloads := []struct {
		name string
		m    *matrix.CSR[float64]
	}{
		{"mid-csr-20k", gen.RandomUniform[float64](20000, 20000, 30, rng)},
		{"small-csr-5k", gen.RandomUniform[float64](5000, 5000, 8, rng)},
		// Just past the serial cutoff: dispatch overhead dominates, so this
		// row isolates spawn cost vs pool wake cost.
		{"tiny-csr-2k", gen.RandomUniform[float64](2000, 2000, 6, rng)},
	}
	lib := NewLibrary[float64]()
	// 8 threads regardless of GOMAXPROCS: the comparison is dispatch
	// overhead (8 goroutine spawns per call vs the pool barrier), which the
	// scheduler exposes even when the chunks time-slice on fewer cores.
	pool := NewPool[float64](8)
	defer pool.Close()
	threads := pool.Threads()
	for _, w := range workloads {
		mat, err := Convert(w.m, matrix.FormatCSR, 0)
		if err != nil {
			b.Fatal(err)
		}
		x := intVector(w.m.Cols)
		y := make([]float64, w.m.Rows)
		for _, name := range []string{"csr_parallel", "csr_parallel_nnz", "csr_parallel_nnz_unroll4"} {
			k := lib.Lookup(name)
			for _, mode := range []string{"spawn", "pooled"} {
				b.Run(fmt.Sprintf("%s/%s/%s", w.name, name, mode), func(b *testing.B) {
					b.SetBytes(int64(w.m.NNZ() * 16))
					b.ReportAllocs()
					if mode == "pooled" {
						k.RunPooled(mat, x, y, pool) // warm plan + workers outside the timer
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							k.RunPooled(mat, x, y, pool)
						}
					} else {
						for i := 0; i < b.N; i++ {
							k.Run(mat, x, y, threads)
						}
					}
					b.ReportMetric(float64(FLOPs(w.m.NNZ()))/1e9*float64(b.N)/b.Elapsed().Seconds(), "gflops")
				})
			}
		}
	}
}
