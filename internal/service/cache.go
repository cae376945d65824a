package service

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/journal"
	"repro/internal/obs"
)

// Cache is a bounded content-addressed result cache with singleflight
// semantics: concurrent lookups of the same key compute the value
// once and share it. Values are stored forever up to the bound, then
// evicted in insertion order (the access pattern is sweep-shaped, so
// FIFO ~= LRU at a fraction of the bookkeeping). Errors are never
// cached — a failed computation is retried by the next caller.
//
// On a durable server the cache is the memory tier over a second,
// durable one: the result store, under the cache's name as the result
// kind. A memory miss reads the store before computing, and every
// computed value is persisted to it — the paper's cache mode, where
// MCDRAM fills from DDR on first touch.
type Cache[V any] struct {
	name    string
	mu      sync.Mutex
	entries map[string]*cacheEntry[V] // guarded by mu
	fifo    []string                  // insertion order for eviction; guarded by mu
	max     int

	// disk is the durable tier (nil: memory only) and persistErrs
	// counts the persists it refused; both are set once by attach,
	// before the server serves.
	disk        *journal.Results
	persistErrs *atomic.Int64

	hits     atomic.Int64
	misses   atomic.Int64
	diskHits atomic.Int64
}

// errNotStored is the fill error of a Get that found the key in
// neither tier.
var errNotStored = errors.New("service: result not stored")

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
// miss, disk-hit and entry counts on reg under cache=name.
func NewCache[V any](name string, reg *obs.Registry, max int) *Cache[V] {
	if max <= 0 {
		max = 1 << 16
	}
	c := &Cache[V]{name: name, entries: make(map[string]*cacheEntry[V]), max: max}
	reg.CounterFunc("simd_cache_hits_total", "Content-addressed cache hits.", count(&c.hits), "cache", name)
	reg.CounterFunc("simd_cache_misses_total", "Content-addressed cache misses.", count(&c.misses), "cache", name)
	reg.CounterFunc("simd_cache_disk_hits_total", "Cache hits served from the durable result store.",
		count(&c.diskHits), "cache", name)
	reg.GaugeFunc("simd_cache_entries", "Cached entries resident.",
		func() float64 { return float64(c.Len()) }, "cache", name)
	return c
}

// attach makes store the cache's durable tier; failed persists count
// into errs.
func (c *Cache[V]) attach(store *journal.Results, errs *atomic.Int64) {
	c.disk, c.persistErrs = store, errs
}

// GetOrCompute returns the cached value for key. On a memory miss it
// reads the durable tier, then computes with fn and persists what fn
// returns. The second return reports whether the value was served
// from cache — memory or disk — rather than computed (true also for
// callers that joined an in-flight lookup: they did not pay for it).
// A nil fn never computes: a key neither tier holds fails with
// errNotStored.
func (c *Cache[V]) GetOrCompute(key string, fn func() (V, error)) (V, bool, error) {
	return c.lookup(key, fn, true)
}

// lookup is GetOrCompute; with wait false a key whose fill is in
// flight reports errNotStored instead of waiting for the fill.
func (c *Cache[V]) lookup(key string, fn func() (V, error), wait bool) (V, bool, error) {
	var zero V
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		done := e.done
		c.mu.Unlock()
		if !wait && done != closedDone {
			return zero, false, errNotStored
		}
		<-done
		if e.err != nil {
			// The filling caller failed and dropped its entry: retry
			// through the cache, so the retry is single-flighted,
			// counted, cached and persisted like any fill.
			return c.lookup(key, fn, wait)
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	if fn == nil && c.disk == nil {
		c.mu.Unlock()
		return zero, false, errNotStored
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.fifo = append(c.fifo, key)
	c.evictLocked()
	c.mu.Unlock()

	cached := c.disk != nil && c.disk.Get(c.name, key, &e.val)
	switch {
	case cached:
		c.hits.Add(1)
		c.diskHits.Add(1)
	case fn == nil:
		e.err = errNotStored
	default:
		c.misses.Add(1)
		e.val, e.err = fn()
		if e.err == nil && c.disk != nil && c.disk.Put(c.name, key, e.val) != nil {
			c.persistErrs.Add(1)
		}
	}
	c.mu.Lock()
	done := e.done
	e.done = closedDone
	if e.err != nil {
		// Drop the failed entry — map AND fifo — before waking the
		// waiters, so their retries cannot find it again and the key
		// stays retryable without growing the eviction queue: a retry
		// appends the key again, so leaving the stale slot behind would
		// let repeated failures grow fifo without bound.
		if cur, ok := c.entries[key]; ok && cur == e {
			delete(c.entries, key)
			c.dropFIFOLocked(key)
		}
	}
	c.mu.Unlock()
	close(done)
	if e.err != nil {
		return zero, false, e.err
	}
	return e.val, cached, nil
}

// Get returns key's value from memory or the durable tier without
// computing anything. A value found counts as a hit.
func (c *Cache[V]) Get(key string) (V, bool) {
	v, _, err := c.GetOrCompute(key, nil)
	return v, err == nil
}

// Peek is Get without the wait: a key whose fill is still in flight
// reports absent at once, so the caller takes its own path (and joins
// the fill there) instead of blocking where it peeked.
func (c *Cache[V]) Peek(key string) (V, bool) {
	v, _, err := c.lookup(key, nil, false)
	return v, err == nil
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

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
