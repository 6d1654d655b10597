package kernels

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"smat/internal/matrix"
)

// Pool is a persistent set of worker goroutines executing chunked work: the
// one way anything in the library runs in parallel. Construct one per
// Tuner or reference library with NewPool and pass it to Kernel.RunPooled,
// BatchKernel.RunPooled or RunChunks. Chunk 0 always runs on the dispatching
// goroutine, and so does every chunk no worker has claimed by the time chunk
// 0 is done; workers start lazily on the first parallel dispatch and exit
// when the pool is closed or garbage-collected.
//
// A Pool is safe for concurrent use: one dispatch owns the workers at a
// time, and a dispatch that finds them busy runs its chunks on its own
// goroutine, in chunk order, instead of queueing behind the other.
type Pool[T matrix.Float] struct {
	s *poolState[T]
}

// spinIters is the barrier's spin budget: how many times a worker polls the
// claim word for a new generation after its last chunk — and the dispatcher
// polls the countdown of chunks workers claimed, once it has run every chunk
// left unclaimed — before parking on its channel. One poll is an
// uncontended atomic load (≈ 0.7 ns on the box of record), so the budget is
// ≈ 100 µs, about what waking a parked worker through the OS costs there:
// long enough that a back-to-back MulVec stream, or a request's ten products
// after its tuning, finds its workers still spinning and pays no wake, and
// bounded so that an idle or abandoned pool stops burning its cores — and a
// worker notices Close — within that time. The dispatcher only waits on a
// chunk a worker is running, so the budget is never spent on a worker that
// has not arrived. BENCH_steady.json's cutoff sweep records what the budget
// buys (back-to-back column) and what a dispatch costs once it has run out
// (idle-gap column).
const spinIters = 1 << 17

// warmWindow is how many spin budgets a worker polls for after a wake token
// that carried no dispatch, and after it starts: Warm's caller expects a
// dispatch shortly but not within one budget — a DIA conversion's diagonal
// tally and allocation can take twice that before it dispatches — so a
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
	// read by the workers after they observe the bump.
	task   task[T]
	bounds []int

	// The barrier. claim publishes a dispatch and hands out its chunks: it
	// packs the dispatch's generation, its next unclaimed chunk and its chunk
	// count (claimWord). A worker that sees a new generation takes chunks by
	// CompareAndSwap until none is left and decrements pending after each;
	// the dispatcher, once chunk 0 is done, takes the chunks no worker has,
	// adds the number the workers took to pending, and waits for it to reach
	// zero. waiting advertises that the dispatcher has stopped spinning and
	// is (about to be) blocked on done.
	claim   atomic.Uint64
	pending atomic.Int32
	waiting atomic.Bool
	workers []*poolWorker
	done    chan struct{}
	stop    chan struct{}
	exited  sync.WaitGroup

	// Live counters, one increment per dispatch (warmed: per worker readied;
	// reclaimed: per chunk); see PoolStats.
	pooled, woken, overflow, serialCutoff, warmed, reclaimed atomic.Uint64

	// arena is the SpGEMM scratch attached to this pool, handed out under
	// its own lock (arenaOf) so repeated products reuse it while concurrent
	// callers fall back to a one-call arena of their own.
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
	// Overflow is the number of parallel dispatches, kernel or RunChunks
	// alike, that found the pool busy with another dispatch (or closed) and
	// ran their chunks on the caller's goroutine instead.
	Overflow uint64 `json:"overflow"`
	// SerialCutoff is the number of calls a parallel kernel ran serially
	// because the matrix's estimated work sat below the plan's cutoff.
	SerialCutoff uint64 `json:"serial_cutoff"`
	// Warmed is the number of workers Warm woke from a park or started.
	Warmed uint64 `json:"warmed"`
	// Reclaimed is the number of chunks of pooled dispatches that ran on the
	// dispatching goroutine because no worker had claimed them by the time
	// it finished chunk 0: a worker still waking, queued behind the
	// dispatcher on its processor, or busy elsewhere.
	Reclaimed uint64 `json:"reclaimed"`
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
		Reclaimed:    p.s.reclaimed.Load(),
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

// Close stops the workers and returns once they have exited. Work may still
// be dispatched to a closed pool; its chunks run on the caller.
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

// run dispatches t over the bounds chunks across the workers, returning false
// when the pool is busy with another dispatch or closed (the caller then runs
// the chunks itself). The whole dispatch allocates nothing.
//
// The protocol: write the job fields, publish the claim word (a new
// generation with chunk 0 already taken), hand a wake token to each worker
// that advertised a park, run chunk 0, then take and run every chunk no
// worker has claimed (PoolStats.Reclaimed), and wait only for the chunks the
// workers took: add their number to pending — the workers decrement it, so it
// reaches zero when the last of them finishes, whichever side came first —
// then spin for the budget, advertise the park, re-check, and block on done.
// A worker releases done only after claiming that advertisement; a claim by
// a worker still finishing the previous dispatch wakes the dispatcher early,
// which is why the wait re-reads pending. Once the dispatcher's take fails no
// worker can claim a chunk of this generation, so a worker that arrives late
// finds nothing to run and never reads the job fields.
//
//smat:wake-barrier
func (s *poolState[T]) run(bounds []int, t *task[T]) bool {
	if !s.mu.TryLock() {
		s.overflow.Add(1)
		return false
	}
	defer s.mu.Unlock()
	n := len(bounds) - 1
	if s.closed || n > s.threads || n > math.MaxUint16 {
		s.overflow.Add(1)
		return false
	}
	if !s.started {
		s.start()
	}
	s.task, s.bounds = *t, bounds
	gen := claimGen(s.claim.Load()) + 1 // only a dispatch, under mu, stores it
	s.claim.Store(claimWord(gen, 1, n))
	woke := false
	for _, w := range s.workers {
		if w.parked.Load() && w.parked.CompareAndSwap(true, false) {
			w.wake <- struct{}{}
			woke = true
		}
	}
	if woke {
		s.woken.Add(1)
	}
	s.task.chunk(bounds, 0)
	reclaimed := 0
	for c, ok := s.take(); ok; c, ok = s.take() {
		s.task.chunk(bounds, c)
		reclaimed++
	}
	if s.pending.Add(int32(n-1-reclaimed)) != 0 {
		for spins := 0; s.pending.Load() != 0; spins++ {
			if spins < s.spin {
				continue
			}
			s.waiting.Store(true)
			if s.pending.Load() == 0 && s.waiting.CompareAndSwap(true, false) {
				break
			}
			<-s.done
		}
	}
	s.task, s.bounds = task[T]{}, nil
	s.pooled.Add(1)
	s.reclaimed.Add(uint64(reclaimed))
	return true
}

// claimWord packs a dispatch's claim word: its generation in the high 32
// bits, the next unclaimed chunk in the 16 below, the chunk count in the low
// 16. The generation is how a polling worker tells a new dispatch from the
// one it served: two dispatches in a row publish the same next chunk and,
// often, the same count.
func claimWord(gen uint32, next, n int) uint64 {
	return uint64(gen)<<32 | uint64(next)<<16 | uint64(n)
}

// claimGen is the generation a claim word publishes.
func claimGen(c uint64) uint32 { return uint32(c >> 32) }

// take claims the next unclaimed chunk of the dispatch the claim word holds,
// reporting false when it has none left. A claim belongs to whichever
// dispatch holds the word when the CompareAndSwap lands, and the job fields
// are read only after it, so a worker that read an earlier dispatch's word
// either fails or serves the current one.
//
//smat:hotpath
func (s *poolState[T]) take() (int, bool) {
	for {
		c := s.claim.Load()
		next, n := int(uint16(c>>16)), int(uint16(c))
		if next >= n {
			return 0, false
		}
		if s.claim.CompareAndSwap(c, c+1<<16) {
			return next, true
		}
	}
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

// task is one dispatch's work: a kernel's chunk body over its matrix and
// vectors (fn; k is the batch width), or a generic chunk job. Exactly one of
// fn and job is non-nil.
type task[T matrix.Float] struct {
	fn   rangeFn[T]
	job  func(chunk, lo, hi int)
	mat  *Mat[T]
	x, y []T
	k    int
}

// chunk runs chunk c, [bounds[c], bounds[c+1]), of t on the calling goroutine.
//
//smat:hotpath
func (t *task[T]) chunk(bounds []int, c int) {
	lo, hi := bounds[c], bounds[c+1]
	if t.job != nil {
		t.job(c, lo, hi)
	} else {
		t.fn(t.mat, t.x, t.y, t.k, lo, hi)
	}
}

// dispatch runs t over the half-open chunks of bounds on the pool's
// persistent workers, chunk 0 — and any chunk no worker has claimed by the
// time chunk 0 is done — on the calling goroutine. When there is one
// chunk, or the pool is nil, busy with another dispatch, closed, or the chunk
// count exceeds its fan-out, the chunks run on the caller, in chunk order.
// Every chunk writes its own range and a per-chunk result does not depend on
// who ran the chunk, so a free, a busy, a closed and a nil pool give the same
// bits. The dispatch allocates nothing either way.
//
//smat:hotpath
func (p *Pool[T]) dispatch(bounds []int, t task[T]) {
	if len(bounds) > 2 && p != nil && p.s.run(bounds, &t) {
		return
	}
	for c := 0; c+1 < len(bounds); c++ {
		t.chunk(bounds, c)
	}
}

// RunChunks executes fn over the half-open chunks of bounds — chunk c covers
// [bounds[c], bounds[c+1]) — with the dispatch contract of Kernel.RunPooled:
// on the pool's workers when it is free, on the caller in chunk order
// otherwise, and the same bits either way, so a caller that reduces its
// chunks in order gets the same result from a free, a busy, a closed and a
// nil pool. It is the dispatch for row-blocked work other than a kernel: the
// Galerkin products, a solver's vector phases, chunked conversions.
// PoolStats.Overflow counts the declined dispatches.
//
//smat:hotpath
func (p *Pool[T]) RunChunks(bounds []int, fn func(chunk, lo, hi int)) {
	p.dispatch(bounds, task[T]{job: fn})
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
		go s.worker(i, claimGen(s.claim.Load()))
	}
}

// worker serves each dispatch by taking its unclaimed chunks (take) until
// none is left, decrementing pending after each; the decrement that brings
// pending to zero releases the dispatcher's barrier. seen is the last
// generation this worker has served. A worker reads the job fields only
// between a successful take, which orders them after the dispatcher wrote
// them, and its decrement, which the dispatcher waits for before it clears
// them; a worker that arrives after every chunk was taken — the dispatcher
// takes what is left once chunk 0 is done — runs nothing and reads nothing.
// A worker that has not served a dispatch since it started or took a token
// polls for the warm window, one that has for the spin budget.
//
//smat:hotpath
//smat:wake-barrier
func (s *poolState[T]) worker(i int, seen uint32) {
	w := s.workers[i]
	budget := warmWindow * s.spin
	for {
		g := claimGen(s.claim.Load())
		for spins := 0; g == seen && spins < budget; spins++ {
			g = claimGen(s.claim.Load())
		}
		if g == seen {
			// Budget spent: advertise the park, then look again — a dispatch
			// that raced the advertisement is served without blocking.
			w.parked.Store(true)
			if g = claimGen(s.claim.Load()); g == seen {
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
		for c, ok := s.take(); ok; c, ok = s.take() {
			s.task.chunk(s.bounds, c)
			if s.pending.Add(-1) == 0 && s.waiting.Load() && s.waiting.CompareAndSwap(true, false) {
				s.done <- struct{}{}
			}
		}
		// Yield before spinning: a worker that was woken onto the dispatcher's
		// own processor hands it back here instead of spinning on it while
		// the dispatcher sits runnable behind it. On a processor of its own
		// the yield returns at once.
		runtime.Gosched()
	}
}
