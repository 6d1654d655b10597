package kernels

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// chunkCounter counts executions per chunk; the barrier tests require every
// chunk of every dispatch to run exactly once.
type chunkCounter [8]atomic.Int64

func (c *chunkCounter) run(chunk, _, _ int) { c[chunk].Add(1) }

// idle busy-waits n polls of an atomic — the unit the pool's own spin budget
// is counted in, so a gap of n polls sits at a known place relative to the
// budget whatever the machine's speed and whether the race detector is on.
func idle(n int) {
	var cell atomic.Uint32
	for i := 0; i < n; i++ {
		cell.Load()
	}
}

// TestPoolBarrierLostWakeupStress drives ≥ 1e5 dispatches through pools of
// 2, 3 and 8 threads with idle gaps drawn from both sides of the spin budget,
// so dispatches land on workers that are spinning, advertising a park,
// parked, and waking. Each round is a full dispatch followed by a two-chunk
// one (the two-phase shape of the HYB kernels, and a dispatch in which most
// workers find nothing to claim). A lost wake-up hangs the test; a chunk
// claimed twice or not at all shows in the per-chunk counts.
func TestPoolBarrierLostWakeupStress(t *testing.T) {
	rounds := 20000
	if testing.Short() {
		rounds = 4000
	}
	rng := rand.New(rand.NewSource(1))
	for _, threads := range []int{2, 3, 8} {
		p := NewPool[float64](threads)
		budget := spinIters // gaps straddle the budget even on pools that do not spin
		if raceEnabled {
			budget >>= 5
		}
		full := make([]int, threads+1)
		for i := range full {
			full[i] = i
		}
		pair := []int{0, 1, 2}
		var counts chunkCounter
		for r := 1; r <= rounds; r++ {
			if rng.Intn(10) == 0 {
				idle(rng.Intn(2 * budget))
			}
			p.RunChunks(full, counts.run)
			p.RunChunks(pair, counts.run)
			for c := 0; c < threads; c++ {
				want := int64(r)
				if c < 2 {
					want = 2 * int64(r)
				}
				if got := counts[c].Load(); got != want {
					t.Fatalf("threads=%d round %d: chunk %d ran %d times, want %d", threads, r, c, got, want)
				}
			}
		}
		if st := p.Stats(); st.Pooled != uint64(2*rounds) || st.Overflow != 0 {
			t.Errorf("threads=%d: stats %+v, want %d pooled dispatches and no overflow", threads, st, 2*rounds)
		}
		p.Close()
	}
}

// TestPoolClaimsEachChunkOnce interleaves back-to-back dispatches with ones
// that follow an idle gap longer than the spin budget, so a dispatch lands on
// workers that are spinning, parking, parked or still waking, and its chunks
// go to whichever side claims them first. Every chunk is tagged with its
// dispatch's sequence number, and must run exactly once and before RunChunks
// returns: a worker that claims a chunk of a dispatch that has ended, or a
// dispatcher that returns before a chunk a worker took has finished, shows
// as a chunk run after its dispatch returned; a chunk taken by two sides, as
// a second run under the same tag. Each chunk polls for a while, so a worker
// polling on its own processor claims a chunk before the dispatcher is done
// with chunk 0: on a pool that spins, the workers must have run some chunks,
// or they never saw the dispatches.
func TestPoolClaimsEachChunkOnce(t *testing.T) {
	rounds := 5000
	if testing.Short() {
		rounds = 1000
	}
	rng := rand.New(rand.NewSource(2))
	budget := spinIters
	if raceEnabled {
		budget >>= 5
	}
	for _, threads := range []int{2, 3, 8} {
		p := NewPool[float64](threads)
		full := make([]int, threads+1)
		for i := range full {
			full[i] = i
		}
		var returned, late, twice atomic.Int64
		var last [8]atomic.Int64 // the sequence number of the last dispatch that ran the chunk
		dispatched := 0
		for seq := int64(1); seq <= int64(rounds); seq++ {
			if seq%4 == 0 {
				idle(budget + rng.Intn(budget))
			}
			n := 2 + rng.Intn(threads-1)
			dispatched += n
			p.RunChunks(full[:n+1], func(c, _, _ int) {
				if returned.Load() >= seq {
					late.Add(1)
				}
				if last[c].Swap(seq) == seq {
					twice.Add(1)
				}
				idle(256)
			})
			returned.Store(seq)
			for c := 0; c < n; c++ {
				if got := last[c].Load(); got != seq {
					t.Fatalf("threads=%d dispatch %d: chunk %d last ran for dispatch %d", threads, seq, c, got)
				}
			}
		}
		p.Close()
		if late.Load() != 0 || twice.Load() != 0 {
			t.Errorf("threads=%d: %d chunks ran after their dispatch returned, %d ran twice in one dispatch", threads, late.Load(), twice.Load())
		}
		st := p.Stats()
		if st.Pooled != uint64(rounds) || st.Overflow != 0 || st.Reclaimed > uint64(dispatched-rounds) {
			t.Errorf("threads=%d: stats %+v, want %d pooled dispatches, no overflow, at most %d chunks reclaimed", threads, st, rounds, dispatched-rounds)
		}
		if p.s.spin > 0 && st.Reclaimed == uint64(dispatched-rounds) {
			t.Errorf("threads=%d: the caller ran all %d chunks past chunk 0; the spinning workers ran none", threads, st.Reclaimed)
		}
	}
}

// TestPoolReclaimsUnclaimedChunks: at GOMAXPROCS 1 the dispatcher keeps the
// one processor from publishing a dispatch until it has run chunk 0, so a
// two-thread pool's worker — just started, or woken from its park — has
// claimed nothing by then, and the dispatcher runs chunk 1 as well instead of
// waiting for it: one reclaimed chunk per dispatch, none overflowed.
func TestPoolReclaimsUnclaimedChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := NewPool[float64](2)
	defer p.Close()
	bounds := []int{0, 1, 2}
	var counts chunkCounter
	p.RunChunks(bounds, counts.run) // starts the worker
	waitParked(t, p)
	p.RunChunks(bounds, counts.run) // wakes it
	if st := p.Stats(); st != (PoolStats{Pooled: 2, Woken: 1, Reclaimed: 2}) {
		t.Errorf("two dispatches on a started, then a parked worker at GOMAXPROCS 1: stats %+v, want 2 pooled, 1 woken, 2 reclaimed, no overflow", st)
	}
	if counts[0].Load() != 2 || counts[1].Load() != 2 {
		t.Errorf("chunks ran %d and %d times, want 2 each", counts[0].Load(), counts[1].Load())
	}
}

// waitGoroutines polls until the goroutine count is back at base, running
// the collector each time so an abandoned pool's finalizer gets its turn.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want the baseline %d", what, runtime.NumGoroutine(), base)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// waitParked polls until every worker has advertised its park.
func waitParked(t *testing.T, p *Pool[float64]) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := range p.s.workers {
		for !p.s.workers[i].parked.Load() {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d never parked", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestPoolShutdownWhileSpinningAndParked: Close returns with the workers
// gone, and an abandoned pool's finalizer sheds them, whether shutdown finds
// them inside their spin budget or blocked on the wake channel.
func TestPoolShutdownWhileSpinningAndParked(t *testing.T) {
	bounds := []int{0, 1, 2}
	var counts chunkCounter
	base := runtime.NumGoroutine()

	for _, park := range []bool{false, true} {
		p := NewPool[float64](2)
		p.RunChunks(bounds, counts.run)
		if park {
			waitParked(t, p)
		}
		p.Close()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("Close (parked=%v) returned with %d goroutines, baseline %d", park, n, base)
		}
		p.RunChunks(bounds, counts.run) // closed: runs on the caller, must not hang
		if st := p.Stats(); st.Pooled != 1 || st.Overflow != 1 {
			t.Errorf("stats %+v, want one pooled dispatch and one overflow after Close", st)
		}
	}

	for _, park := range []bool{false, true} {
		func() {
			p := NewPool[float64](2)
			p.RunChunks(bounds, counts.run)
			if park {
				waitParked(t, p)
			}
		}() // abandoned without Close
		waitGoroutines(t, base, "abandoned pool")
	}
}

// TestPoolStatsCountWokenDispatches: a dispatch that finds its worker parked
// counts as woken, one that follows at once does not.
func TestPoolStatsCountWokenDispatches(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("on one processor the pool does not spin: every dispatch wakes its worker")
	}
	bounds := []int{0, 1, 2}
	var counts chunkCounter
	p := NewPool[float64](2)
	defer p.Close()
	p.RunChunks(bounds, counts.run)
	waitParked(t, p)
	before := p.Stats()
	p.RunChunks(bounds, counts.run)
	if st := p.Stats(); st.Pooled != before.Pooled+1 || st.Woken != before.Woken+1 {
		t.Errorf("dispatch onto a parked worker moved the counters from %+v to %+v; want one pooled, one woken", before, st)
	}
	// Back-to-back dispatches catch the worker polling at least once in a
	// hundred tries, however the scheduler treats the pair.
	before = p.Stats()
	for i := 0; i < 100; i++ {
		p.RunChunks(bounds, counts.run)
	}
	if st := p.Stats(); st.Pooled != before.Pooled+100 || st.Woken-before.Woken >= 100 {
		t.Errorf("100 back-to-back dispatches moved the counters from %+v to %+v; want 100 pooled, fewer woken", before, st)
	}
}

// TestPoolWarmSparesTheDispatchAWake: Warm hands a parked worker its token,
// so a dispatch that follows inside the warm window — here two spin budgets
// after Warm, past the budget a worker polls for after a dispatch — finds no
// park to claim and counts no wake, where the same dispatch without Warm
// counts one. The scheduler may stall the test goroutine between Warm and the
// dispatch past the window, so the spared wake is asserted only on trials
// whose measured Warm→dispatch gap stayed inside warmWindow-1 budgets (one
// budget of margin for a worker that polls faster than idle), and at least
// one trial must. On a pool that does not spin (one processor) the worker
// parks again at once and only completion and the Warmed count are checked.
func TestPoolWarmSparesTheDispatchAWake(t *testing.T) {
	bounds := []int{0, 1, 2}
	var counts chunkCounter
	p := NewPool[float64](2)
	defer p.Close()
	p.RunChunks(bounds, counts.run)
	spins := p.s.spin > 0

	// One budget's duration: the fastest of a few timed idles with the
	// worker parked, so neither a stall nor a spinning worker competing for
	// the processors while calibrating can widen the window.
	waitParked(t, p)
	budget := time.Duration(1<<63 - 1)
	for i := 0; i < 10; i++ {
		start := time.Now()
		idle(p.s.spin)
		budget = min(budget, time.Since(start))
	}
	window := (warmWindow - 1) * budget

	inWindow := 0
	for trial := 0; trial < 10; trial++ {
		waitParked(t, p)
		before := p.Stats()
		start := time.Now()
		p.Warm()
		idle(2 * p.s.spin)
		gap := time.Since(start)
		p.RunChunks(bounds, counts.run)
		st := p.Stats()
		if st.Warmed != before.Warmed+1 || st.Pooled != before.Pooled+1 {
			t.Fatalf("Warm on a parked worker, then a dispatch, moved the counters from %+v to %+v; want one warmed, one pooled", before, st)
		}
		if spins && gap < window {
			inWindow++
			if st.Woken != before.Woken {
				t.Errorf("trial %d: a dispatch %v after Warm (window %v) counted a wake", trial, gap, window)
			}
		}
	}
	if spins && inWindow == 0 {
		t.Errorf("no trial dispatched inside the warm window (%v)", window)
	}

	waitParked(t, p)
	before := p.Stats()
	p.RunChunks(bounds, counts.run)
	if st := p.Stats(); st.Warmed != before.Warmed || (spins && st.Woken != before.Woken+1) {
		t.Errorf("a dispatch onto a parked worker without Warm moved the counters from %+v to %+v; want one woken, none warmed", before, st)
	}
	for c := 0; c < 2; c++ {
		if got := counts[c].Load(); got != counts[0].Load() {
			t.Fatalf("chunk %d ran %d times, chunk 0 %d", c, got, counts[0].Load())
		}
	}
}

// TestPoolWarmOversubscribedNeverSpins: on a pool with more threads than
// processors neither a worker that served a dispatch nor one that Warm readied
// polls at all — a spinning goroutine there only delays the one it waits for —
// so after Warm every worker parks again by itself, and the dispatch that
// follows finds them parked and counts the wake Warm could not spare.
func TestPoolWarmOversubscribedNeverSpins(t *testing.T) {
	threads := runtime.GOMAXPROCS(0) + 1
	p := NewPool[float64](threads)
	defer p.Close()
	if p.s.spin != 0 {
		t.Fatalf("a pool of %d threads on %d processors polls for %d after a dispatch and %d after Warm; want none",
			threads, runtime.GOMAXPROCS(0), p.s.spin, warmWindow*p.s.spin)
	}
	bounds := make([]int, threads+1)
	for i := range bounds {
		bounds[i] = i
	}
	var ran atomic.Int64
	run := func(_, lo, hi int) { ran.Add(int64(hi - lo)) }
	p.RunChunks(bounds, run)
	for round := 0; round < 3; round++ {
		waitParked(t, p)
		before := p.Stats()
		p.Warm()
		waitParked(t, p) // Warm took every advertisement: these are new ones
		p.RunChunks(bounds, run)
		if st := p.Stats(); st.Warmed != before.Warmed+uint64(threads-1) || st.Pooled != before.Pooled+1 || st.Woken != before.Woken+1 {
			t.Errorf("round %d: Warm, the workers' park, then a dispatch moved the counters from %+v to %+v; want %d warmed, one pooled, one woken",
				round, before, st, threads-1)
		}
	}
	if got := ran.Load(); got != int64(4*threads) {
		t.Errorf("four dispatches of %d unit chunks ran %d units", threads, got)
	}
}

// TestPoolWarmStartsWorkers: on a pool no dispatch has started yet, Warm
// starts the workers — each counts as warmed — and the first dispatch runs on
// them.
func TestPoolWarmStartsWorkers(t *testing.T) {
	p := NewPool[float64](3)
	defer p.Close()
	p.Warm()
	if !p.s.started || len(p.s.workers) != 2 {
		t.Fatalf("Warm on an unstarted pool left started=%v with %d workers; want 2", p.s.started, len(p.s.workers))
	}
	var counts chunkCounter
	p.RunChunks([]int{0, 1, 2, 3}, counts.run)
	if st := p.Stats(); st.Warmed != 2 || st.Pooled != 1 || st.Overflow != 0 {
		t.Errorf("stats %+v, want two warmed and one pooled dispatch", st)
	}
}

// TestPoolWarmNoOpWhenClosedOrBusy: a closed pool starts nothing, and a pool
// in the middle of a dispatch — its workers are awake — is left alone.
func TestPoolWarmNoOpWhenClosedOrBusy(t *testing.T) {
	closed := NewPool[float64](2)
	closed.Close()
	closed.Warm()
	if closed.s.started || closed.Stats() != (PoolStats{}) {
		t.Errorf("Warm on a closed pool: started=%v, stats %+v", closed.s.started, closed.Stats())
	}

	p := NewPool[float64](2)
	defer p.Close()
	var counts chunkCounter
	p.RunChunks([]int{0, 1, 2}, counts.run)
	waitParked(t, p)
	p.RunChunks([]int{0, 1, 2}, func(chunk, lo, hi int) {
		if chunk == 0 {
			p.Warm() // the dispatcher holds the pool
		}
		counts.run(chunk, lo, hi)
	})
	if st := p.Stats(); st.Warmed != 0 || st.Pooled != 2 {
		t.Errorf("Warm inside a dispatch: stats %+v, want none warmed, two pooled", st)
	}
}

// TestPoolWarmAllocatesNothing: once the workers are started, Warm allocates
// nothing, parked workers or not.
func TestPoolWarmAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronisation")
	}
	p := NewPool[float64](2)
	defer p.Close()
	p.Warm()
	waitParked(t, p)
	if n := testing.AllocsPerRun(100, p.Warm); n != 0 {
		t.Errorf("Warm allocated %v times a call", n)
	}
}
