package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
)

// TestCacheReadThrough: a memory miss reads the durable tier before
// computing; a value found there is a hit that never computes, and a
// computed value is persisted under the cache's name.
func TestCacheReadThrough(t *testing.T) {
	store, err := journal.OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("test", "stored", 7); err != nil {
		t.Fatal(err)
	}
	c := NewCache[int]("test", obs.NewRegistry(), 0)
	var persistErrs atomic.Int64
	c.attach(store, &persistErrs)
	var calls atomic.Int64
	fn := func() (int, error) { calls.Add(1); return 9, nil }

	if v, cached, err := c.GetOrCompute("stored", fn); err != nil || v != 7 || !cached {
		t.Fatalf("stored key: v=%d cached=%v err=%v, want 7 from disk", v, cached, err)
	}
	if v, cached, err := c.GetOrCompute("fresh", fn); err != nil || v != 9 || cached {
		t.Fatalf("fresh key: v=%d cached=%v err=%v, want a compute of 9", v, cached, err)
	}
	var persisted int
	if !store.Get("test", "fresh", &persisted) || persisted != 9 {
		t.Fatalf("computed value not persisted: %d", persisted)
	}
	if v, ok := c.Get("stored"); !ok || v != 7 {
		t.Fatalf("Get(stored) = %d, %v", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get served a key neither tier holds")
	}
	if calls.Load() != 1 || c.Len() != 2 || persistErrs.Load() != 0 {
		t.Fatalf("calls=%d len=%d persistErrs=%d, want 1, 2, 0", calls.Load(), c.Len(), persistErrs.Load())
	}
	if h, m := c.Stats(); h != 2 || m != 1 || c.diskHits.Load() != 1 {
		t.Fatalf("hits=%d misses=%d diskHits=%d, want 2, 1, 1", h, m, c.diskHits.Load())
	}

	// Without a durable tier, Get looks at memory only.
	mem := NewCache[int]("test", obs.NewRegistry(), 0)
	if _, ok := mem.Get("stored"); ok || mem.Len() != 0 {
		t.Fatalf("memory-only Get found a value or left an entry (len %d)", mem.Len())
	}
}

func TestCacheGetOrCompute(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 0)
	var calls atomic.Int64
	fn := func() (int, error) { calls.Add(1); return 42, nil }

	v, cached, err := c.GetOrCompute("k", fn)
	if err != nil || v != 42 || cached {
		t.Fatalf("first call: v=%d cached=%v err=%v", v, cached, err)
	}
	v, cached, err = c.GetOrCompute("k", fn)
	if err != nil || v != 42 || !cached {
		t.Fatalf("second call: v=%d cached=%v err=%v", v, cached, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1", calls.Load())
	}
	if h, m := c.Stats(); h != 1 || m != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", h, m)
	}
}

// TestCacheReadThroughSingleflight: concurrent lookups of a key only
// the durable tier holds share one read and never compute.
func TestCacheReadThroughSingleflight(t *testing.T) {
	store, err := journal.OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("test", "k", 7); err != nil {
		t.Fatal(err)
	}
	c := NewCache[int]("test", obs.NewRegistry(), 0)
	var persistErrs atomic.Int64
	c.attach(store, &persistErrs)
	const callers = 16
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, cached, err := c.GetOrCompute("k", func() (int, error) {
				return 0, errors.New("computed a stored value")
			})
			if err != nil || v != 7 || !cached {
				t.Errorf("v=%d cached=%v err=%v, want 7 from disk", v, cached, err)
			}
		}()
	}
	wg.Wait()
	if h, m := c.Stats(); h != callers || m != 0 || c.diskHits.Load() != 1 {
		t.Fatalf("hits=%d misses=%d diskHits=%d, want %d, 0, 1", h, m, c.diskHits.Load(), callers)
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 0)
	var calls atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (int, error) {
				calls.Add(1)
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("v=%d err=%v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("concurrent identical lookups computed %d times, want 1", calls.Load())
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 0)
	boom := errors.New("boom")
	var calls atomic.Int64
	fail := func() (int, error) { calls.Add(1); return 0, boom }
	if _, _, err := c.GetOrCompute("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The key must stay retryable and then cache the success.
	v, cached, err := c.GetOrCompute("k", func() (int, error) { return 5, nil })
	if err != nil || v != 5 || cached {
		t.Fatalf("retry: v=%d cached=%v err=%v", v, cached, err)
	}
	if v, cached, _ := c.GetOrCompute("k", fail); v != 5 || !cached {
		t.Fatalf("after retry: v=%d cached=%v", v, cached)
	}
	if calls.Load() != 1 {
		t.Fatalf("failing fn ran %d times, want 1", calls.Load())
	}
}

// TestCacheWaiterRetriesThroughCache: when the filling caller fails,
// the callers that joined its fill retry through the cache. The retry
// is single-flighted, counted as a miss, cached and persisted, and the
// next caller hits.
func TestCacheWaiterRetriesThroughCache(t *testing.T) {
	store, err := journal.OpenResults(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache[int]("test", obs.NewRegistry(), 0)
	var persistErrs atomic.Int64
	c.attach(store, &persistErrs)
	boom := errors.New("boom")
	release := make(chan struct{})
	filled := make(chan error)
	go func() {
		_, _, err := c.GetOrCompute("k", func() (int, error) { <-release; return 0, boom })
		filled <- err
	}()
	for c.Len() == 0 {
		runtime.Gosched() // until the fill is in flight
	}
	const waiters = 4
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (int, error) { computes.Add(1); return 7, nil })
			if err != nil || v != 7 {
				t.Errorf("waiter: v=%d err=%v, want 7", v, err)
			}
		}()
	}
	// Give the waiters time to join the fill. Any interleaving must
	// pass; a waiter that arrives after the failure is simply the retry.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-filled; !errors.Is(err, boom) {
		t.Fatalf("filler err = %v, want boom", err)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("waiters computed the retry %d times, want 1", n)
	}
	v, cached, err := c.GetOrCompute("k", func() (int, error) { return 0, errors.New("recomputed a cached value") })
	if err != nil || v != 7 || !cached {
		t.Fatalf("next call: v=%d cached=%v err=%v, want a hit on 7", v, cached, err)
	}
	if h, m := c.Stats(); h != waiters || m != 2 || c.Len() != 1 {
		t.Fatalf("hits=%d misses=%d len=%d, want %d, 2, 1", h, m, c.Len(), waiters)
	}
	var persisted int
	if !store.Get("test", "k", &persisted) || persisted != 7 || persistErrs.Load() != 0 {
		t.Fatalf("retry not persisted: %d (persistErrs %d)", persisted, persistErrs.Load())
	}
}

// TestCacheFailedKeyDoesNotLeakFIFO hammers a key whose computation
// keeps failing: every failure must purge its fifo slot, so repeated
// retries cannot grow the eviction queue or plant duplicate entries.
func TestCacheFailedKeyDoesNotLeakFIFO(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 8)
	boom := errors.New("boom")
	for i := 0; i < 100; i++ {
		if _, _, err := c.GetOrCompute("flaky", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
			t.Fatalf("iteration %d: err = %v", i, err)
		}
		if n := c.fifoLen(); n != 0 {
			t.Fatalf("iteration %d: fifo holds %d entries after failure, want 0", i, n)
		}
	}
	// Interleave successes so the queue is busy, then keep failing: the
	// fifo must track the entry count exactly (no duplicates, no leak).
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k%d", i%4)
		if _, _, err := c.GetOrCompute(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		_, _, _ = c.GetOrCompute("flaky", func() (int, error) { return 0, boom })
		if fifo, entries := c.fifoLen(), c.Len(); fifo != entries {
			t.Fatalf("iteration %d: fifo=%d entries=%d — queue out of sync", i, fifo, entries)
		}
	}
	if n := c.fifoLen(); n > 8 {
		t.Fatalf("fifo grew to %d under repeated failures, bound is 8", n)
	}
	// The flaky key must still be retryable and then cache the success.
	v, cached, err := c.GetOrCompute("flaky", func() (int, error) { return 77, nil })
	if err != nil || v != 77 || cached {
		t.Fatalf("recovery: v=%d cached=%v err=%v", v, cached, err)
	}
}

// TestCacheEvictionProceedsPastInFlight pins the eviction scan: one
// long-running computation at the head of the queue must not stall
// eviction of the completed entries behind it.
func TestCacheEvictionProceedsPastInFlight(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 2)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _ = c.GetOrCompute("inflight", func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started

	// Every insert beyond the bound must evict a completed entry even
	// though the oldest entry ("inflight") cannot be evicted yet.
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.GetOrCompute(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > 2 {
			t.Fatalf("insert %d: cache holds %d entries, bound is 2 — eviction stalled on in-flight head", i, n)
		}
	}
	close(release)
	wg.Wait()
	// The in-flight entry survived the whole sweep and now serves hits.
	v, cached, err := c.GetOrCompute("inflight", func() (int, error) { return -1, nil })
	if err != nil || !cached || v != 1 {
		t.Fatalf("in-flight entry lost: v=%d cached=%v err=%v", v, cached, err)
	}
}

// TestCacheAllInFlightDoesNotSpin fills the cache beyond its bound
// with computations that never finish: evictLocked must give up after
// one rotation instead of spinning forever.
func TestCacheAllInFlightDoesNotSpin(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		started := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _ = c.GetOrCompute(fmt.Sprintf("k%d", i), func() (int, error) {
				close(started)
				<-release
				return 0, nil
			})
		}()
		<-started // the insert (and its eviction scan) has happened
	}
	close(release)
	wg.Wait()
	// Entries completed after the scans; the next insert trims to max.
	if _, _, err := c.GetOrCompute("kn", func() (int, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n > 1 {
		t.Fatalf("cache holds %d entries after completions, bound is 1", n)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 4)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.GetOrCompute(k, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n > 4 {
		t.Fatalf("cache holds %d entries, bound is 4", n)
	}
	// Newest entry must have survived.
	v, cached, _ := c.GetOrCompute("k9", func() (int, error) { return -1, nil })
	if !cached || v != 9 {
		t.Fatalf("newest entry evicted: v=%d cached=%v", v, cached)
	}
}
