// Package ss is the syncsafety analyzer fixture.
package ss

import "sync/atomic"

// counters uses raw 64-bit cells after a narrow field: misaligned on 386.
type counters struct {
	flag bool
	hits int64
	miss uint64
}

// alignedCounters keeps the 64-bit cell first.
type alignedCounters struct {
	hits int64
	flag bool
}

// nested reaches a misaligned cell through an embedded struct.
type nested struct {
	pad int32
	alignedCounters
}

func misaligned(c *counters, n *nested) {
	atomic.AddInt64(&c.hits, 1) // want `not 8-byte aligned`
	atomic.LoadUint64(&c.miss)  // want `not 8-byte aligned`
	atomic.AddInt64(&n.hits, 1) // want `field alignedCounters.hits at 32-bit offset 4`
}

func aligned(a *alignedCounters) {
	atomic.AddInt64(&a.hits, 1)
}
