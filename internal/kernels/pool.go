package kernels

import (
	"runtime"
	"sync"
	"sync/atomic"

	"smat/internal/matrix"
)

// Pool is a persistent set of worker goroutines executing kernel chunks: the
// steady-state replacement for spawning `threads` goroutines on every SpMV
// call. Construct one per Library/Tuner with NewPool and pass it to
// Kernel.RunPooled. Chunk 0 always runs on the dispatching goroutine;
// workers start lazily on the first parallel dispatch and exit when the pool
// is closed or garbage-collected.
//
// A Pool is safe for concurrent use: one dispatch owns the workers at a
// time, and concurrent dispatches overflow to per-call goroutines instead of
// queueing behind each other.
type Pool[T matrix.Float] struct {
	s *poolState[T]
}

// spinIters is the barrier's spin budget: how many times a worker polls the
// generation after finishing a chunk — and the dispatcher polls the countdown
// after finishing chunk 0 — before parking on its channel. One poll is an
// uncontended atomic load (≈ 0.7 ns on the box of record), so the budget is
// ≈ 100 µs, about what waking a parked worker through the OS costs there:
// long enough that a back-to-back MulVec stream, or a request's ten products
// after its tuning, finds its workers still spinning and pays no wake, and
// bounded so that an idle
// or abandoned pool stops burning its cores — and a worker notices Close —
// within that time. BENCH_steady.json's cutoff sweep records what the budget
// buys (back-to-back column) and what a dispatch costs once it has run out
// (idle-gap column).
const spinIters = 1 << 17

// warmWindow is how many spin budgets a worker polls for after a wake token
// that carried no dispatch, and after it starts: Warm's caller expects a
// dispatch shortly but not within one budget — a tune's column pass and
// allocation can take twice that before its conversion dispatches — so a
// warmed worker polls until the next generation or for this many budgets,
// whichever comes first. Serving a dispatch puts it back on one budget.
const warmWindow = 4

// poolWorker is one worker's parking spot: parked advertises that the worker
// has stopped spinning and is (about to be) blocked on wake.
type poolWorker struct {
	parked atomic.Bool
	wake   chan struct{}
}

// poolState is the worker-visible part of the pool. Workers hold only this
// inner struct, so an abandoned Pool becomes unreachable, its finalizer
// runs, and the workers exit instead of leaking.
type poolState[T matrix.Float] struct {
	threads int
	// spin is spinIters when every pool thread can own a processor
	// (threads ≤ GOMAXPROCS at construction) and 0 otherwise: on an
	// oversubscribed pool a spinning goroutine only delays the chunk it is
	// waiting for, so both sides park at once.
	spin int

	mu      sync.Mutex // owns the dispatch fields and worker startup
	started bool
	closed  bool

	// Dispatch state, written under mu before the generation is bumped and
	// read by the workers after they observe the bump. Exactly one of fn
	// (SpMV dispatch) and job (generic chunked dispatch, e.g. GalerkinRAP) is
	// non-nil per dispatch.
	fn     rangeFn[T]
	job    func(chunk, lo, hi int)
	mat    *Mat[T]
	x, y   []T
	k      int
	bounds []int

	// The barrier. gen publishes a dispatch: every worker sees each bump
	// exactly once, runs chunk i+1 when the dispatch has one, and decrements
	// pending; the dispatcher waits for pending to reach zero. waiting
	// advertises that the dispatcher has stopped spinning and is (about to
	// be) blocked on done.
	gen     atomic.Uint32
	pending atomic.Int32
	waiting atomic.Bool
	workers []*poolWorker
	done    chan struct{}
	stop    chan struct{}
	exited  sync.WaitGroup

	// Live counters, one increment per dispatch (warmed: per worker readied);
	// see PoolStats.
	pooled, woken, overflow, serialCutoff, warmed atomic.Uint64

	// arena is the SpGEMM scratch attached to this pool, handed out under
	// its own lock (arenaOf) so repeated products reuse it while concurrent
	// callers fall back to private scratch.
	arenaMu sync.Mutex
	arena   *spgemmArena[T]
}

// PoolStats counts what the pool's dispatches did; see Pool.Stats.
type PoolStats struct {
	// Pooled is the number of parallel dispatches the persistent workers ran.
	Pooled uint64 `json:"pooled"`
	// Woken is how many of those found a worker parked — they followed an
	// idle gap longer than the spin budget — and paid an OS wake for it.
	Woken uint64 `json:"woken"`
	// Overflow is the number of parallel dispatches that found the pool busy
	// with another dispatch (or closed) and fell back to per-call goroutines
	// (kernels) or to the caller's own goroutine (RunChunks).
	Overflow uint64 `json:"overflow"`
	// SerialCutoff is the number of calls a parallel kernel ran serially
	// because the matrix's estimated work sat below the plan's cutoff.
	SerialCutoff uint64 `json:"serial_cutoff"`
	// Warmed is the number of workers Warm woke from a park or started.
	Warmed uint64 `json:"warmed"`
}

// NewPool builds a worker pool with the given thread fan-out; threads ≤ 0
// resolves GOMAXPROCS once, here, instead of on every kernel call.
func NewPool[T matrix.Float](threads int) *Pool[T] {
	procs := runtime.GOMAXPROCS(0)
	if threads <= 0 {
		threads = procs
	}
	s := &poolState[T]{
		threads: threads,
		done:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	if threads <= procs {
		s.spin = spinIters
		if raceEnabled {
			// The race detector makes a poll some thirty times dearer; keep
			// the budget's duration, not its count.
			s.spin >>= 5
		}
	}
	p := &Pool[T]{s: s}
	runtime.SetFinalizer(p, func(p *Pool[T]) { p.s.shutdown() })
	return p
}

// Threads returns the pool's resolved thread count.
func (p *Pool[T]) Threads() int { return p.s.threads }

// Stats snapshots the pool's dispatch counters.
func (p *Pool[T]) Stats() PoolStats {
	return PoolStats{
		Pooled:       p.s.pooled.Load(),
		Woken:        p.s.woken.Load(),
		Overflow:     p.s.overflow.Load(),
		SerialCutoff: p.s.serialCutoff.Load(),
		Warmed:       p.s.warmed.Load(),
	}
}

// countSerial records a serial-cutoff hit: a parallel kernel on a parallel
// pool whose plan says the matrix is too small to fan out.
//
//smat:hotpath
func (s *poolState[T]) countSerial(plan *Plan, strat Strategy) {
	if plan.Serial && s.threads > 1 && strat&StratParallel != 0 {
		s.serialCutoff.Add(1)
	}
}

// Close stops the workers and returns once they have exited. Kernels may
// still be dispatched to a closed pool; they fall back to per-call goroutine
// fan-out.
func (p *Pool[T]) Close() {
	runtime.SetFinalizer(p, nil)
	p.s.shutdown()
	p.s.exited.Wait()
}

// shutdown closes the stop channel. It takes mu, so it waits out a dispatch
// in flight: when stop closes every worker is spinning or parked, and a
// spinning worker parks — and sees stop — within its spin budget.
func (s *poolState[T]) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.stop)
	}
}

// run dispatches the bounds chunks across the workers, returning false when
// the pool is busy with another dispatch or closed (the caller then falls
// back to spawning, or runs the chunks itself). Exactly one of fn and job is non-nil. The whole dispatch
// allocates nothing.
//
// The protocol: write the job fields, arm the countdown, bump the generation
// (the publish — workers that are still spinning pick it up from there), hand
// a wake token to each worker that advertised a park, run chunk 0, then wait
// for the countdown: spin for the budget, then advertise the park, re-check,
// and block on done. A worker releases done only after claiming that
// advertisement; a claim by a worker still finishing the previous dispatch
// wakes the dispatcher early, which is why the wait re-reads the countdown.
//
//smat:wake-barrier
func (s *poolState[T]) run(bounds []int, fn rangeFn[T], job func(chunk, lo, hi int), m *Mat[T], x, y []T, k int) bool {
	if !s.mu.TryLock() {
		s.overflow.Add(1)
		return false
	}
	defer s.mu.Unlock()
	if s.closed || len(bounds)-1 > s.threads {
		s.overflow.Add(1)
		return false
	}
	if !s.started {
		s.start()
	}
	s.fn, s.job, s.mat, s.x, s.y, s.k, s.bounds = fn, job, m, x, y, k, bounds
	s.pending.Store(int32(len(s.workers)))
	s.gen.Add(1)
	woke := false
	for _, w := range s.workers {
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
			woke = true
		}
	}
	s.chunk(0)
	spin := s.spin
	if woke {
		// The woken worker is queued on this processor until an idle one
		// steals it: parking at once runs it here, spinning would make it
		// wait for the thief's OS wake.
		spin = 0
		s.woken.Add(1)
	}
	for spins := 0; s.pending.Load() != 0; spins++ {
		if spins < spin {
			continue
		}
		s.waiting.Store(true)
		if s.pending.Load() == 0 && s.waiting.CompareAndSwap(true, false) {
			break
		}
		<-s.done
	}
	s.fn, s.job, s.mat, s.x, s.y, s.bounds = nil, nil, nil, nil, nil, nil
	s.pooled.Add(1)
	return true
}

// Warm readies the workers for a dispatch the caller expects shortly: it
// starts them if the pool has not started them yet, and hands a wake token to
// each worker that advertised a park, without publishing a dispatch — the
// token says "look again", and a worker that finds no new generation polls
// for warmWindow spin budgets before parking again (an oversubscribed pool,
// which does not spin, parks at once). A dispatch inside that window then
// finds the workers polling, and the OS wake was paid while the caller did
// something else. On a busy pool (its workers are awake anyway) and on a
// closed one it does nothing; it never blocks and allocates nothing once the
// workers are started. PoolStats.Warmed counts the workers it readied.
//
//smat:wake-barrier
func (p *Pool[T]) Warm() {
	s := p.s
	if !s.mu.TryLock() {
		return
	}
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return
	case !s.started:
		s.start()
		s.warmed.Add(uint64(len(s.workers)))
		return
	}
	for _, w := range s.workers {
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			s.warmed.Add(1)
			w.wake <- struct{}{}
		}
	}
}

// chunk runs chunk c of the published dispatch on the calling goroutine.
//
//smat:hotpath
func (s *poolState[T]) chunk(c int) {
	lo, hi := s.bounds[c], s.bounds[c+1]
	if s.job != nil {
		s.job(c, lo, hi)
	} else {
		s.fn(s.mat, s.x, s.y, s.k, lo, hi)
	}
}

// RunChunks executes fn over the half-open chunks of bounds — chunk c covers
// [bounds[c], bounds[c+1]) — on the pool's persistent workers, chunk 0 on the
// calling goroutine. When the pool is nil, busy with another dispatch, closed,
// or the chunk count exceeds its fan-out, the chunks run on the caller, in
// chunk order. The dispatch allocates nothing either way, and a per-chunk
// result does not depend on who ran the chunk, so a caller that reduces its
// chunks in order gets the same bits from a free, a busy, a closed and a nil
// pool. It is the dispatch for row-blocked work other than a kernel: the
// Galerkin products, a solver's vector phases, chunked conversions.
// PoolStats.Overflow counts the declined dispatches.
//
//smat:hotpath
func (p *Pool[T]) RunChunks(bounds []int, fn func(chunk, lo, hi int)) {
	if len(bounds) > 2 && p != nil && p.s.run(bounds, nil, fn, nil, nil, nil, 0) {
		return
	}
	lo := 0
	for edge, hi := range bounds { // chunk edge-1 ends at edge
		if edge > 0 {
			fn(edge-1, lo, hi)
		}
		lo = hi
	}
}

// start launches the workers. It runs under mu on the first parallel
// dispatch, so pools that only ever see serial work cost no goroutines.
func (s *poolState[T]) start() {
	s.started = true
	s.workers = make([]*poolWorker, s.threads-1)
	s.exited.Add(len(s.workers))
	for i := range s.workers {
		// One token of slack: the dispatcher's send never blocks on a worker
		// that is between its advertisement and its receive.
		s.workers[i] = &poolWorker{wake: make(chan struct{}, 1)}
		go s.worker(i, s.gen.Load())
	}
}

// worker executes chunk i+1 of each dispatch; the last worker to finish
// releases the dispatcher's barrier. seen is the last generation this worker
// has served. The job-field reads are ordered by the generation bump (before)
// and the pending decrement (after), so the dispatcher never reuses the slots
// while a worker still reads them. A dispatch with fewer chunks than threads
// still counts every worker in, which keeps "who reads the fields of which
// generation" a question with one answer. A worker that has not served a
// dispatch since it started or took a token polls for the warm window, one
// that has for the spin budget.
//
//smat:hotpath
//smat:wake-barrier
func (s *poolState[T]) worker(i int, seen uint32) {
	w := s.workers[i]
	budget := warmWindow * s.spin
	for {
		g := s.gen.Load()
		for spins := 0; g == seen && spins < budget; spins++ {
			g = s.gen.Load()
		}
		if g == seen {
			// Budget spent: advertise the park, then look again — a bump
			// that raced the advertisement is served without blocking.
			w.parked.Store(true)
			if g = s.gen.Load(); g == seen {
				select {
				case <-s.stop:
					s.exited.Done()
					return
				case <-w.wake:
				}
				// A token only says "look again": a dispatcher that was slow
				// to walk the workers hands one to a worker that has already
				// served its dispatch and parked since, and Warm hands one
				// ahead of a dispatch.
				budget = warmWindow * s.spin
				continue
			}
			if !w.parked.CompareAndSwap(true, false) {
				<-w.wake // the dispatcher claimed the park first; take its token
			}
		}
		seen, budget = g, s.spin
		if i+1 < len(s.bounds)-1 {
			s.chunk(i + 1)
		}
		if s.pending.Add(-1) == 0 && s.waiting.Load() && s.waiting.CompareAndSwap(true, false) {
			s.done <- struct{}{}
		}
		// Yield before spinning: a worker that was woken onto the dispatcher's
		// own processor hands it back here instead of spinning on it while
		// the dispatcher sits runnable behind it. On a processor of its own
		// the yield returns at once.
		runtime.Gosched()
	}
}

// spawnChunks is the pool-less dispatch: one fresh goroutine per chunk
// beyond the caller's, joined on a WaitGroup — the pre-engine execution
// path, kept for Kernel.Run and as the overflow path when the pool is busy.
func spawnChunks[T matrix.Float](bounds []int, fn rangeFn[T], m *Mat[T], x, y []T, k int) {
	nchunks := len(bounds) - 1
	var wg sync.WaitGroup
	wg.Add(nchunks - 1)
	for t := 1; t < nchunks; t++ {
		go func(lo, hi int) {
			defer wg.Done()
			fn(m, x, y, k, lo, hi)
		}(bounds[t], bounds[t+1])
	}
	fn(m, x, y, k, bounds[0], bounds[1])
	wg.Wait()
}
