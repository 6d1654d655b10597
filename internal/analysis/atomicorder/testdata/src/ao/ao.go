// Package ao is the atomicorder fixture: a miniature publish slot + worker
// barrier protocol with one seeded violation of every rule the analyzer
// reports, next to healthy twins that must stay quiet.
package ao

import "sync/atomic"

type payload struct {
	data  []float64
	ready bool
}

type slotBox struct {
	slot  atomic.Pointer[payload]
	state atomic.Int32
}

// goodPublish builds the payload completely and then publishes it; quiet.
func (b *slotBox) goodPublish(n int) {
	p := &payload{data: make([]float64, n), ready: true}
	b.slot.Store(p)
}

// mutateAfterPublish finishes initializing the payload after the store made
// it visible: a concurrent reader can observe ready still false.
func (b *slotBox) mutateAfterPublish(n int) {
	p := &payload{data: make([]float64, n)}
	b.slot.Store(p)
	p.ready = true // want `mutated after being atomically published`
}

// publishMaybeZero publishes a pointer whose zero-value definition still
// reaches the store on the n <= 0 path.
func (b *slotBox) publishMaybeZero(n int) {
	var p *payload
	if n > 0 {
		p = &payload{data: make([]float64, n), ready: true}
	}
	b.slot.Store(p) // want `may store its zero value`
}

// writeThroughSnapshot mutates the shared payload through a Load snapshot.
func (b *slotBox) writeThroughSnapshot() {
	p := b.slot.Load()
	p.ready = false // want `write through atomic Load snapshot`
}

// doubleLoad takes two snapshots of one slot; a swap between them tears the
// sum across two payloads.
func (b *slotBox) doubleLoad() int {
	a := b.slot.Load()
	c := b.slot.Load() // want `loaded more than once`
	return len(a.data) + len(c.data)
}

// singleLoad is the healthy consumer shape: one load, reads only; quiet.
func (b *slotBox) singleLoad() int {
	p := b.slot.Load()
	if p == nil {
		return 0
	}
	return len(p.data)
}

// plainAccess lets the atomic cell's address escape, so callers can bypass
// the protocol entirely.
func (b *slotBox) plainAccess() *atomic.Int32 {
	return &b.state // want `plain access to atomic field`
}

type barrier struct {
	job     func()
	gen     atomic.Uint32
	pending atomic.Int32
	parked  atomic.Bool
	waiting atomic.Bool
	wake    chan struct{}
	done    chan struct{}
}

// goodDispatch is the healthy dispatcher: job field, countdown, generation
// publish, a token only for a claimed park, then spin, advertise, re-check
// and block; the job field is cleared once the countdown has been seen at
// zero. The repeated pending loads are polling, not snapshots; quiet.
//
//smat:wake-barrier
func (b *barrier) goodDispatch(job func(), budget int) {
	b.job = job
	b.pending.Store(1)
	b.gen.Add(1)
	if b.parked.Load() && b.parked.CompareAndSwap(true, false) {
		b.wake <- struct{}{}
	}
	for spins := 0; b.pending.Load() != 0; spins++ {
		if spins < budget {
			continue
		}
		b.waiting.Store(true)
		if b.pending.Load() == 0 && b.waiting.CompareAndSwap(true, false) {
			break
		}
		<-b.done
	}
	b.job = nil
}

// goodWorker is the healthy worker: spin on the generation, advertise the
// park, look again, block — and after a token look again from the top, since
// a token is only a hint; release the dispatcher only after the countdown
// decrement and a claimed advertisement; quiet.
//
//smat:wake-barrier
func (b *barrier) goodWorker(seen uint32, budget int) {
	for {
		g := b.gen.Load()
		for spins := 0; g == seen && spins < budget; spins++ {
			g = b.gen.Load()
		}
		if g == seen {
			b.parked.Store(true)
			if g = b.gen.Load(); g == seen {
				<-b.wake
				continue
			}
			if !b.parked.CompareAndSwap(true, false) {
				<-b.wake
			}
		}
		seen = g
		b.job()
		if b.pending.Add(-1) == 0 && b.waiting.CompareAndSwap(true, false) {
			b.done <- struct{}{}
		}
	}
}

// wakeBeforeArming hands out the token first: a fast worker decrements a
// stale countdown and releases the dispatcher early.
//
//smat:wake-barrier
func (b *barrier) wakeBeforeArming() {
	if b.parked.CompareAndSwap(true, false) {
		b.wake <- struct{}{} // want `not preceded by an atomic countdown`
	}
	b.pending.Store(1)
	b.gen.Add(1)
}

// wakeUnadvertised sends a token to a worker that never said it parked: the
// token outlives this dispatch and cuts the worker's next park short.
//
//smat:wake-barrier
func (b *barrier) wakeUnadvertised() {
	b.pending.Store(1)
	b.gen.Add(1)
	b.wake <- struct{}{} // want `not gated on a CompareAndSwap`
}

// parkWithoutRecheck blocks straight after the advertisement: a generation
// bump that landed in between sent no token, and the worker sleeps through
// the dispatch.
//
//smat:wake-barrier
func (b *barrier) parkWithoutRecheck() {
	b.parked.Store(true)
	<-b.wake // want `does not follow the park protocol`
}

// lateJobField publishes the generation and then fills in the job: a
// spinning worker already runs the previous dispatch's closure.
//
//smat:wake-barrier
func (b *barrier) lateJobField(job func()) {
	b.pending.Store(1)
	b.gen.Add(1)
	b.job = job // want `written after the generation publish`
}
