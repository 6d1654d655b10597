// Package ao is the atomicorder fixture: a miniature publish slot + worker
// barrier protocol with one seeded violation of each rule the analyzer
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

// wakeUnadvertised sends a token to a worker that never said it parked: the
// token outlives this dispatch and cuts the worker's next park short.
//
//smat:wake-barrier
func (b *barrier) wakeUnadvertised() {
	b.pending.Store(1)
	b.gen.Add(1)
	b.wake <- struct{}{} // want `not gated on a CompareAndSwap`
}
