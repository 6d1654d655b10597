package autotune

import (
	"container/list"
	"sync"
	"sync/atomic"

	"smat/internal/features"
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
// binds the tuner's kernel for the format. Confidence is the matched
// rule-group confidence for model predictions — above the model's threshold,
// or the tune would have measured — and 1 for measured (execute-and-measure)
// winners.
type CacheEntry struct {
	Format     matrix.Format
	Confidence float64
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
	// ConvertView says the leader's Format form was a view of its own CSR
	// arrays — ELL of a matrix whose rows all hold the width — so ConvertSec
	// is a view's ≈ 0 s, not a padded copy's. A hinted hit of a matrix
	// whose rows are not uniform re-leads rather than take that cost.
	ConvertView bool
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
	// entries an iteration-hinted request could not use (they lacked its
	// payoff measurements) and replaced by a re-tune.
	Evictions, Refreshes uint64
	// Size is the current entry count, Capacity the configured bound.
	Size, Capacity int
	// StructureHits counts tunes whose matrix came with a pattern signature
	// the structure index knew, and so ran no structure scan; Structures is the
	// index's current record count, bounded by Capacity like Size.
	StructureHits uint64
	Structures    int
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
// block on its result. All methods are safe for concurrent use. Each tuner
// owns one; it stores decisions (format + parameters), not operators.
//
// Beside the decisions it keeps the structure index: what a tune learned from
// scanning a signed matrix (structureRecord), per exact pattern, under the
// same shards, the same LRU policy and the same bound.
type Cache struct {
	capacity int // bound of either index; each shard holds capacity/cacheShards
	shards   [cacheShards]cacheShard

	hits, misses, shared, evictions, refreshes, structureHits atomic.Uint64
}

type cacheShard struct {
	mu         sync.Mutex
	decisions  lru[features.Key, CacheEntry]
	inflight   map[features.Key]*flight
	structures lru[structureKey, *structureRecord]
}

// lru is a map that remembers the order its keys were last used in, so the
// owner can drop the stalest. The zero value is not ready: see NewCache.
type lru[K comparable, V any] struct {
	order list.List // front = most recently used; values are *lruNode[K, V]
	byKey map[K]*list.Element
}

type lruNode[K comparable, V any] struct {
	key K
	val V
}

// get returns a pointer to key's value, marking it most recently used, or
// nil. The pointer is good while the owner's lock is held.
func (l *lru[K, V]) get(key K) *V {
	el, ok := l.byKey[key]
	if !ok {
		return nil
	}
	l.order.MoveToFront(el)
	return &el.Value.(*lruNode[K, V]).val
}

// put sets key's value, marking it most recently used; a new key first evicts
// from the stale end until fewer than bound keys are held. It returns the
// number evicted.
func (l *lru[K, V]) put(key K, val V, bound int) (evicted int) {
	if p := l.get(key); p != nil {
		*p = val
		return 0
	}
	for ; l.order.Len() >= bound; evicted++ {
		delete(l.byKey, l.order.Remove(l.order.Back()).(*lruNode[K, V]).key)
	}
	l.byKey[key] = l.order.PushFront(&lruNode[K, V]{key: key, val: val})
	return evicted
}

// remove drops key, if held.
func (l *lru[K, V]) remove(key K) {
	if el, ok := l.byKey[key]; ok {
		l.order.Remove(el)
		delete(l.byKey, key)
	}
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
		s := &c.shards[i]
		s.decisions.byKey = make(map[features.Key]*list.Element)
		s.inflight = make(map[features.Key]*flight)
		s.structures.byKey = make(map[structureKey]*list.Element)
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

// DoValidated returns the cached decision for key, or runs tune — exactly
// once across all concurrent callers of the same key — and caches its
// result. The second return value reports whether the decision came from the
// cache (a hit, or another caller's completed in-flight run) rather than from
// this caller's own tune invocation.
//
// A cached entry that fails valid is dropped (counted as a refresh) and
// re-tuned; a nil valid accepts everything. The tuner uses this to reject
// entries that lack the amortisation measurements an iteration-hinted
// request needs, keeping the cache keyed purely by the structural
// fingerprint while still validating hits against the hint.
//
// Errors from tune are returned to the leader and never cached; waiters on
// a failed run retry as leaders of their own tuning run.
func (c *Cache) DoValidated(key features.Key, valid func(CacheEntry) bool, tune func() (CacheEntry, error)) (CacheEntry, bool, error) {
	s := c.shard(key)
	for {
		s.mu.Lock()
		if p := s.decisions.get(key); p != nil {
			if entry := *p; valid == nil || valid(entry) {
				s.mu.Unlock()
				c.hits.Add(1)
				return entry, true, nil
			}
			// An entry this caller cannot use: drop it and re-tune below.
			s.decisions.remove(key)
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
	if p := s.decisions.get(key); p != nil {
		return *p, true
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

// insertLocked adds or refreshes an entry in s, evicting from the LRU tail
// to stay within the per-shard bound. Caller holds s.mu.
func (c *Cache) insertLocked(s *cacheShard, key features.Key, entry CacheEntry) {
	c.evictions.Add(uint64(s.decisions.put(key, entry, c.perShardCap())))
}

// structureKey names one exact sparsity pattern: its content signature, and
// the shape — free to compare, and what matrix.Layout panics on.
type structureKey struct {
	sig             matrix.Signature
	rows, cols, nnz int
}

// structureRecord is the symbolic half of a tune, everything extract derives
// from RowPtr and ColIdx alone: the Table 2 features and the layout the DIA
// and ELL conversions work from. It is immutable once remembered, shared by
// every tune that recalls it, and O(stored diagonals) in size — it holds no
// per-row or per-column array and none of the caller's.
type structureRecord struct {
	features features.Features
	layout   matrix.Layout
	// band is the width of the band of diagonals the entries lie in
	// (matrix.Structure.Band): what bounds the diagonal features of a record
	// whose scan stopped after the row pass (features.DiagBounds).
	band int
}

func (c *Cache) structureShard(k structureKey) *cacheShard {
	return &c.shards[uint64(k.sig)%cacheShards]
}

// recallStructure returns the record remembered for k, counting the hit.
func (c *Cache) recallStructure(k structureKey) *structureRecord {
	s := c.structureShard(k)
	s.mu.Lock()
	var rec *structureRecord
	if p := s.structures.get(k); p != nil {
		rec = *p // under the lock: a concurrent rememberStructure writes the slot
	}
	s.mu.Unlock()
	if rec != nil {
		c.structureHits.Add(1)
	}
	return rec
}

// rememberStructure files rec under k, replacing what was there. Structure
// evictions are not counted: Evictions is the decisions'.
func (c *Cache) rememberStructure(k structureKey, rec *structureRecord) {
	s := c.structureShard(k)
	s.mu.Lock()
	s.structures.put(k, rec, c.perShardCap())
	s.mu.Unlock()
}

// Len returns the current number of cached entries.
func (c *Cache) Len() int {
	n, _ := c.sizes()
	return n
}

// sizes counts the decisions and the structure records held.
func (c *Cache) sizes() (decisions, structures int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		decisions += len(s.decisions.byKey)
		structures += len(s.structures.byKey)
		s.mu.Unlock()
	}
	return decisions, structures
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	size, structures := c.sizes()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Evictions:     c.evictions.Load(),
		Refreshes:     c.refreshes.Load(),
		Size:          size,
		Capacity:      c.capacity,
		StructureHits: c.structureHits.Load(),
		Structures:    structures,
	}
}
