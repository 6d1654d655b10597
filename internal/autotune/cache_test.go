package autotune

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smat/internal/features"
	"smat/internal/matrix"
)

// keyN builds a distinct fingerprint for each n.
func keyN(n int) features.Key {
	return features.Key{M: uint8(n), N: uint8(n >> 8), NNZ: uint8(n >> 16)}
}

// sameShardKeys returns count distinct keys that all hash to one shard.
func sameShardKeys(t *testing.T, count int) []features.Key {
	t.Helper()
	want := keyN(0).Hash() % cacheShards
	keys := []features.Key{keyN(0)}
	for n := 1; len(keys) < count && n < 1<<20; n++ {
		if k := keyN(n); k.Hash()%cacheShards == want {
			keys = append(keys, k)
		}
	}
	if len(keys) < count {
		t.Fatalf("could not craft %d same-shard keys", count)
	}
	return keys
}

func TestCacheDoCachesAndHits(t *testing.T) {
	c := NewCache(128)
	calls := 0
	tune := func() (CacheEntry, error) {
		calls++
		return CacheEntry{Format: matrix.FormatDIA, Confidence: 0.9}, nil
	}
	e, fromCache, err := c.DoValidated(keyN(1), nil, tune)
	if err != nil || fromCache || e.Format != matrix.FormatDIA {
		t.Fatalf("first Do: entry=%+v fromCache=%v err=%v", e, fromCache, err)
	}
	e, fromCache, err = c.DoValidated(keyN(1), nil, tune)
	if err != nil || !fromCache || e.Format != matrix.FormatDIA || e.Confidence != 0.9 {
		t.Fatalf("second Do: entry=%+v fromCache=%v err=%v", e, fromCache, err)
	}
	if calls != 1 {
		t.Errorf("tune ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / size 1", st)
	}
}

func TestCacheSingleflightDedup(t *testing.T) {
	c := NewCache(128)
	const waiters = 16
	var calls atomic.Int32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e, _, err := c.DoValidated(keyN(7), nil, func() (CacheEntry, error) {
				calls.Add(1)
				time.Sleep(30 * time.Millisecond) // hold the flight open
				return CacheEntry{Format: matrix.FormatELL, Confidence: 0.8}, nil
			})
			if err != nil || e.Format != matrix.FormatELL {
				t.Errorf("Do: entry=%+v err=%v", e, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("tune ran %d times under singleflight, want exactly 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Shared+st.Hits != waiters-1 {
		t.Errorf("stats = %+v, want 1 miss and %d shared+hits", st, waiters-1)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 128 over 64 shards = 2 entries per shard. Three keys on one
	// shard: after touching the first, inserting the third must evict the
	// second (least recently used), not the first.
	keys := sameShardKeys(t, 3)
	c := NewCache(128)
	put := func(k features.Key) {
		c.DoValidated(k, nil, func() (CacheEntry, error) {
			return CacheEntry{Format: matrix.FormatCSR, Confidence: 1}, nil
		})
	}
	put(keys[0])
	put(keys[1])
	if _, ok := c.Get(keys[0]); !ok { // bump keys[0] to most-recent
		t.Fatal("keys[0] missing before eviction")
	}
	put(keys[2])
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("recently-used entry was evicted")
	}
	if _, ok := c.Get(keys[1]); ok {
		t.Error("least-recently-used entry survived past capacity")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestCacheRefreshInvalidEntry: an entry the caller's predicate rejects is
// re-tuned, replaced and counted as a refresh; one it accepts is served.
func TestCacheRefreshInvalidEntry(t *testing.T) {
	c := NewCache(64)
	c.Put(keyN(3), CacheEntry{Format: matrix.FormatDIA, Confidence: 1})
	costed := func(e CacheEntry) bool { return e.SpMVSec > 0 }

	refreshed := false
	e, fromCache, err := c.DoValidated(keyN(3), costed, func() (CacheEntry, error) {
		refreshed = true
		return CacheEntry{Format: matrix.FormatCOO, Confidence: 1, SpMVSec: 1}, nil
	})
	if err != nil || fromCache || !refreshed || e.Format != matrix.FormatCOO {
		t.Fatalf("refresh: entry=%+v fromCache=%v refreshed=%v err=%v", e, fromCache, refreshed, err)
	}
	if st := c.Stats(); st.Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", st.Refreshes)
	}

	e, fromCache, _ = c.DoValidated(keyN(3), costed, func() (CacheEntry, error) {
		t.Error("valid entry was re-tuned")
		return CacheEntry{}, nil
	})
	if !fromCache || e.Format != matrix.FormatCOO {
		t.Errorf("valid entry not served: entry=%+v fromCache=%v", e, fromCache)
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(64)
	boom := errors.New("boom")
	if _, _, err := c.DoValidated(keyN(9), nil, func() (CacheEntry, error) { return CacheEntry{}, boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Error("failed tune was cached")
	}
	// The next caller runs its own tune.
	e, fromCache, err := c.DoValidated(keyN(9), nil, func() (CacheEntry, error) {
		return CacheEntry{Format: matrix.FormatELL, Confidence: 0.9}, nil
	})
	if err != nil || fromCache || e.Format != matrix.FormatELL {
		t.Errorf("retry after error: entry=%+v fromCache=%v err=%v", e, fromCache, err)
	}
}

func TestCacheWaiterRetriesAfterLeaderError(t *testing.T) {
	c := NewCache(64)
	boom := errors.New("boom")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.DoValidated(keyN(11), nil, func() (CacheEntry, error) {
			close(leaderIn)
			<-release
			return CacheEntry{}, boom
		})
	}()
	<-leaderIn
	done := make(chan struct{})
	go func() {
		defer close(done)
		// This waiter blocks on the leader, sees its error, and retries as
		// its own leader.
		e, _, err := c.DoValidated(keyN(11), nil, func() (CacheEntry, error) {
			return CacheEntry{Format: matrix.FormatDIA, Confidence: 0.9}, nil
		})
		if err != nil || e.Format != matrix.FormatDIA {
			t.Errorf("waiter retry: entry=%+v err=%v", e, err)
		}
	}()
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter deadlocked after leader error")
	}
}

func TestCacheConcurrentMixedKeys(t *testing.T) {
	// Hammer the cache from many goroutines over a small key space with a
	// tiny capacity, exercising hits, evictions and singleflight together.
	c := NewCache(1) // 1 entry per shard
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keyN((g + i) % 40)
				e, _, err := c.DoValidated(k, nil, func() (CacheEntry, error) {
					return CacheEntry{Format: matrix.FormatCSR, Confidence: 1}, nil
				})
				if err != nil || e.Format != matrix.FormatCSR || e.Confidence != 1 {
					t.Errorf("Do: entry=%+v err=%v", e, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Shared+st.Misses != 8*500 {
		t.Errorf("counter total %d, want %d (stats %+v)", st.Hits+st.Shared+st.Misses, 8*500, st)
	}
	if st.Size > 64 {
		t.Errorf("size %d exceeds per-shard bound", st.Size)
	}
}
