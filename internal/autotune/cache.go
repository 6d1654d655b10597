package autotune

import (
	"container/list"
	"sync"
	"sync/atomic"

	"smat/internal/features"
	"smat/internal/kernels"
	"smat/internal/matrix"
)

// DefaultCacheSize bounds the decision cache when Config.CacheSize is zero.
const DefaultCacheSize = 1024

// cacheShards is the shard fan-out of the decision cache. 64 shards keep
// lock contention negligible even with hundreds of concurrent tuning
// requests while costing only a few kilobytes of fixed overhead.
const cacheShards = 64

// CacheEntry is one cached tuning decision: the winning format for a feature
// fingerprint, plus how the decision was reached. It names no kernel: a hit
// binds the hitting tuner's own kernel for the format, so tuners at different
// thread counts can share one cache. Confidence
// is the matched rule-group confidence for model predictions and 1 for
// measured (execute-and-measure) winners; Measured separates the two so a
// low-confidence predicted entry can later be refreshed by a tuner that is
// willing to measure.
type CacheEntry struct {
	Format     matrix.Format
	Confidence float64
	Measured   bool
	// Params carries the leader's kernel parameters (conversion knobs like
	// the BCSR block shape or the HYB width cut, plus the batch register
	// tile): cache hits convert and bind with the same parameters, so a
	// parameterized decision survives the cache unchanged.
	Params kernels.Params
	// BatchCrossover is the measured batch-width crossover of Format under
	// Params, written back by the first operator of the entry to run a
	// batched call (SetBatchCrossover); hits bind it and never probe. Zero
	// means no operator has batched yet — a hit then probes on its own first
	// batched call and publishes the width here.
	BatchCrossover int
	// ConvertSec, SpMVSec and IncumbentSec are the leader's amortisation
	// measurements: seconds to convert the leader's matrix to Format, the
	// converted operator's per-SpMV seconds, and the tuned-CSR incumbent's
	// per-SpMV seconds. Hits carrying an iteration hint recompute the
	// break-even point from these instead of re-measuring; a non-CSR entry
	// recorded without them (all zero) fails hint validation and is
	// re-tuned (see Tuner.TuneOpts). All three are zero when Format is CSR —
	// there is nothing to amortise.
	ConvertSec   float64
	SpMVSec      float64
	IncumbentSec float64
}

// CacheStats is a point-in-time snapshot of the decision cache counters.
type CacheStats struct {
	// Hits counts lookups answered by a cached entry; Misses counts lookups
	// that ran a full tuning pass as singleflight leader.
	Hits, Misses uint64
	// Shared counts callers that blocked on another goroutine's in-flight
	// tuning run for the same fingerprint and reused its result.
	Shared uint64
	// Evictions counts entries dropped by the LRU bound; Refreshes counts
	// low-confidence entries replaced by a re-tune.
	Evictions, Refreshes uint64
	// Size is the current entry count, Capacity the configured bound.
	Size, Capacity int
}

// HitRate returns the fraction of lookups served without a tuning run.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Shared + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// Cache is a sharded, LRU-bounded map from feature fingerprints to tuning
// decisions with singleflight deduplication: N concurrent requests for the
// same un-tuned fingerprint trigger exactly one tuning run while the rest
// block on its result. All methods are safe for concurrent use. The cache
// stores decisions (format + parameters), not operators, so one cache can be
// shared by tuners of different element types and thread counts.
type Cache struct {
	capacity int // total bound; each shard holds capacity/cacheShards
	shards   [cacheShards]cacheShard

	hits, misses, shared, evictions, refreshes atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	lru      list.List // front = most recently used; values are *cacheNode
	entries  map[features.Key]*list.Element
	inflight map[features.Key]*flight
}

type cacheNode struct {
	key   features.Key
	entry CacheEntry
}

// flight is one in-progress tuning run that waiters block on.
type flight struct {
	done  chan struct{}
	entry CacheEntry
	err   error
}

// NewCache builds a decision cache bounded to roughly capacity entries
// (the bound is enforced per shard, so the worst-case total is capacity
// rounded up to a multiple of the shard count). capacity ≤ 0 selects
// DefaultCacheSize.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	c := &Cache{capacity: capacity}
	for i := range c.shards {
		c.shards[i].entries = make(map[features.Key]*list.Element)
		c.shards[i].inflight = make(map[features.Key]*flight)
	}
	return c
}

func (c *Cache) shard(k features.Key) *cacheShard {
	return &c.shards[k.Hash()%cacheShards]
}

func (c *Cache) perShardCap() int {
	if n := c.capacity / cacheShards; n > 1 {
		return n
	}
	return 1
}

// Do returns the cached decision for key, or runs tune — exactly once
// across all concurrent callers of the same key — and caches its result.
// The second return value reports whether the decision came from the cache
// (a hit, or another caller's completed in-flight run) rather than from
// this caller's own tune invocation.
//
// A cached entry that was not measured and whose confidence is below
// refreshBelow is treated as stale: it is removed and re-tuned, so a
// decision recorded by a low-confidence prediction can be upgraded by a
// tuner willing to run the execute-and-measure fallback.
//
// Errors from tune are returned to the leader and never cached; waiters on
// a failed run retry as leaders of their own tuning run.
func (c *Cache) Do(key features.Key, refreshBelow float64, tune func() (CacheEntry, error)) (CacheEntry, bool, error) {
	return c.DoValidated(key, refreshBelow, nil, tune)
}

// DoValidated is Do with an extra acceptance predicate: a cached entry that
// fails valid is treated exactly like a stale low-confidence entry — dropped
// (counted as a refresh) and re-tuned. A nil valid accepts everything. The
// tuner uses this to reject entries that lack the amortisation measurements
// an iteration-hinted request needs, keeping the cache keyed purely by the
// structural fingerprint while still validating hits against the hint.
func (c *Cache) DoValidated(key features.Key, refreshBelow float64, valid func(CacheEntry) bool, tune func() (CacheEntry, error)) (CacheEntry, bool, error) {
	s := c.shard(key)
	for {
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			n := el.Value.(*cacheNode)
			if (n.entry.Measured || n.entry.Confidence >= refreshBelow) && (valid == nil || valid(n.entry)) {
				s.lru.MoveToFront(el)
				entry := n.entry
				s.mu.Unlock()
				c.hits.Add(1)
				return entry, true, nil
			}
			// Stale low-confidence (or validation-failing) entry: drop it and
			// re-tune below.
			s.lru.Remove(el)
			delete(s.entries, key)
			c.refreshes.Add(1)
		}
		if f, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				// The leader failed on its matrix; run our own tuning pass.
				continue
			}
			if valid != nil && !valid(f.entry) {
				// The leader's entry does not satisfy this caller's needs
				// (e.g. it was inserted by a Put without cost measurements);
				// loop back and refresh it as leader.
				continue
			}
			c.shared.Add(1)
			return f.entry, true, nil
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[key] = f
		s.mu.Unlock()

		c.misses.Add(1)
		entry, err := tune()
		f.entry, f.err = entry, err

		s.mu.Lock()
		delete(s.inflight, key)
		if err == nil {
			c.insertLocked(s, key, entry)
		}
		s.mu.Unlock()
		close(f.done)
		return entry, false, err
	}
}

// Get returns the cached decision without side effects on the counters or
// the in-flight table (the LRU position is still bumped).
func (c *Cache) Get(key features.Key) (CacheEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		return el.Value.(*cacheNode).entry, true
	}
	return CacheEntry{}, false
}

// Put inserts or replaces a decision directly, bypassing singleflight.
func (c *Cache) Put(key features.Key, entry CacheEntry) {
	s := c.shard(key)
	s.mu.Lock()
	c.insertLocked(s, key, entry)
	s.mu.Unlock()
}

// SetBatchCrossover records the batch crossover an operator measured on an
// engine of format f, where p is what key's entry held for parameters when
// the operator was tuned. It is a no-op unless the entry still names that
// engine: one evicted since, or replaced by a refresh that chose another
// format or other parameters, is left alone — the width was not measured on
// what it describes — and so is an entry for another format than the engine's
// (the tuned-CSR incumbent of a conversion declined or still pending).
func (c *Cache) SetBatchCrossover(key features.Key, f matrix.Format, p kernels.Params, crossover int) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		if n := el.Value.(*cacheNode); n.entry.Format == f && n.entry.Params == p {
			n.entry.BatchCrossover = crossover
		}
	}
}

// insertLocked adds or refreshes an entry in s, evicting from the LRU tail
// to stay within the per-shard bound. Caller holds s.mu.
func (c *Cache) insertLocked(s *cacheShard, key features.Key, entry CacheEntry) {
	if el, ok := s.entries[key]; ok {
		el.Value.(*cacheNode).entry = entry
		s.lru.MoveToFront(el)
		return
	}
	for cap := c.perShardCap(); s.lru.Len() >= cap; {
		back := s.lru.Back()
		delete(s.entries, back.Value.(*cacheNode).key)
		s.lru.Remove(back)
		c.evictions.Add(1)
	}
	s.entries[key] = s.lru.PushFront(&cacheNode{key: key, entry: entry})
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Shared:    c.shared.Load(),
		Evictions: c.evictions.Load(),
		Refreshes: c.refreshes.Load(),
		Size:      c.Len(),
		Capacity:  c.capacity,
	}
}
