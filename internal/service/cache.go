package service

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Cache is a bounded content-addressed result cache with singleflight
// semantics: concurrent lookups of the same key compute the value
// once and share it. Values are stored forever up to the bound, then
// evicted in insertion order (the access pattern is sweep-shaped, so
// FIFO ~= LRU at a fraction of the bookkeeping). Errors are never
// cached — a failed computation is retried by the next caller.
type Cache[V any] struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry[V] // guarded by mu
	fifo    []string                  // insertion order for eviction; guarded by mu
	max     int

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry[V any] struct {
	// done is closed when val/err are set. Once the entry is filled,
	// the filler swaps in the shared closedDone, so a retained entry
	// holds no channel of its own. Read and swapped under Cache.mu.
	done chan struct{}
	val  V
	err  error
}

// closedDone is the done channel of every filled cache entry.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// NewCache builds a cache bounded to max entries (<=0 means a default
// of 64k, plenty for any single-node study) and registers its hit,
// miss and entry counts on reg under cache=name.
func NewCache[V any](name string, reg *obs.Registry, max int) *Cache[V] {
	if max <= 0 {
		max = 1 << 16
	}
	c := &Cache[V]{entries: make(map[string]*cacheEntry[V]), max: max}
	reg.CounterFunc("simd_cache_hits_total", "Content-addressed cache hits.", count(&c.hits), "cache", name)
	reg.CounterFunc("simd_cache_misses_total", "Content-addressed cache misses.", count(&c.misses), "cache", name)
	reg.GaugeFunc("simd_cache_entries", "Cached entries resident.",
		func() float64 { return float64(c.Len()) }, "cache", name)
	return c
}

// GetOrCompute returns the cached value for key, computing it with fn
// on a miss. The second return reports whether the value was served
// from cache (true also for callers that joined an in-flight
// computation — they did not pay for it).
func (c *Cache[V]) GetOrCompute(key string, fn func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		done := e.done
		c.mu.Unlock()
		<-done
		if e.err != nil {
			// The computing caller failed; retry independently rather
			// than serving a cached error.
			var zero V
			v, err := fn()
			if err != nil {
				return zero, false, err
			}
			return v, false, nil
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.fifo = append(c.fifo, key)
	c.evictLocked()
	c.mu.Unlock()

	c.misses.Add(1)
	e.val, e.err = fn()
	close(e.done)
	c.mu.Lock()
	e.done = closedDone
	if e.err != nil {
		// Drop the failed entry — map AND fifo — so the key stays
		// retryable without growing the eviction queue: a retry appends
		// the key again, so leaving the stale slot behind would let
		// repeated failures grow fifo without bound.
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
			c.dropFIFOLocked(key)
		}
		c.mu.Unlock()
		var zero V
		return zero, false, e.err
	}
	c.mu.Unlock()
	return e.val, false, nil
}

// Peek returns the cached value for key if a finished computation
// holds one, without computing anything or counting a hit.
func (c *Cache[V]) Peek(key string) (V, bool) {
	var zero V
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return zero, false
	}
	done := e.done
	c.mu.Unlock()
	select {
	case <-done:
		if e.err != nil {
			return zero, false
		}
		return e.val, true
	default:
		return zero, false
	}
}

// Seed inserts an already-computed value — journal recovery warming
// the caches at boot. It counts as neither hit nor miss and never
// replaces an existing entry (a live computation wins over a stale
// disk copy).
func (c *Cache[V]) Seed(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = &cacheEntry[V]{done: closedDone, val: v}
	c.fifo = append(c.fifo, key)
	c.evictLocked()
}

// dropFIFOLocked removes one occurrence of key from the eviction
// queue. Keys appear at most once (inserts are guarded by the entries
// map). The scan runs back-to-front because the only caller is the
// failure path purging the key it just appended — only keys inserted
// while fn ran can sit behind it, so the scan is O(concurrent
// inserts), not O(cache size).
func (c *Cache[V]) dropFIFOLocked(key string) {
	for i := len(c.fifo) - 1; i >= 0; i-- {
		if c.fifo[i] == key {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			return
		}
	}
}

// evictLocked enforces the bound. Entries still being computed are
// pushed to the back and the scan continues with the next candidate —
// one long-running computation must not stall eviction for everyone
// else. The scan is bounded to one full rotation of the queue so a
// cache whose entries are all in flight cannot spin.
func (c *Cache[V]) evictLocked() {
	for scanned, limit := 0, len(c.fifo); len(c.entries) > c.max && scanned < limit; scanned++ {
		victim := c.fifo[0]
		c.fifo = c.fifo[1:]
		e, ok := c.entries[victim]
		if !ok {
			continue // stale key; nothing to evict
		}
		select {
		case <-e.done:
			delete(c.entries, victim)
		default:
			// In flight; push it to the back and try the next one.
			c.fifo = append(c.fifo, victim)
		}
	}
}

// fifoLen returns the eviction-queue length (test hook: it must track
// len(entries) exactly, even under repeated failures).
func (c *Cache[V]) fifoLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fifo)
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns cumulative hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
