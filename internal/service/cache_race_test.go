package service

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestCacheChurnRace is the guardedby audit's regression pin: it
// hammers the exact paths the analyzer walks — miss-fill, eviction,
// failed-entry drop (the one place entries and fifo are edited from a
// re-acquired lock), the compute-free Get and the wait-free Peek —
// from many goroutines at once, then
// checks the entries/fifo bookkeeping stayed exact. Run under
// -race -count=2 it also pins the absence of data races on the
// `guarded by mu` fields.
func TestCacheChurnRace(t *testing.T) {
	c := NewCache[int]("test", obs.NewRegistry(), 8) // tiny bound so eviction churns constantly

	var wg sync.WaitGroup
	errBoom := errors.New("boom")
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%03d", i%32)
				fail := (i+g)%5 == 0
				v, _, err := c.GetOrCompute(key, func() (int, error) {
					if fail {
						return 0, errBoom
					}
					return i, nil
				})
				if err == nil && v < 0 {
					t.Errorf("impossible value %d", v)
				}
				if v, ok := c.Get(key); ok && v < 0 {
					t.Errorf("impossible value %d", v)
				}
				if v, ok := c.Peek(key); ok && v < 0 {
					t.Errorf("impossible value %d", v)
				}
			}
		}(g)
	}
	wg.Wait()

	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) != len(c.fifo) {
		t.Fatalf("entries/fifo diverged after churn: %d entries, %d fifo slots", len(c.entries), len(c.fifo))
	}
	if len(c.entries) > c.max {
		t.Fatalf("cache over bound: %d entries, max %d", len(c.entries), c.max)
	}
	for _, key := range c.fifo {
		if _, ok := c.entries[key]; !ok {
			t.Fatalf("fifo holds evicted/dropped key %q", key)
		}
	}
}
