package tracesim

import (
	"math"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/knl"
	"repro/internal/units"
)

func TestSequentialGenerator(t *testing.T) {
	for _, n := range []int{4, 2*batchSize + 5} {
		g, err := NewSequential(1000, uint64(n)*64, 64, cache.Read)
		if err != nil {
			t.Fatal(err)
		}
		acc, blocks := drain(g)
		requireFullBlocks(t, blocks, n)
		for i, a := range acc {
			if a.Addr != 1000+uint64(i)*64 || a.Kind != cache.Read {
				t.Fatalf("%d accesses: access %d is %+v", n, i, a)
			}
		}
		if again, _ := drain(g); !slices.Equal(again, acc) {
			t.Fatalf("%d accesses: reset failed", n)
		}
	}
	if _, err := NewSequential(0, 0, 64, cache.Read); err == nil {
		t.Error("zero size accepted")
	}
}

func TestUniformRandomGenerator(t *testing.T) {
	for _, n := range []int{1000, 2*batchSize + 5} {
		g, err := NewUniformRandom(0, 1<<20, int64(n), cache.Read, 5)
		if err != nil {
			t.Fatal(err)
		}
		acc, blocks := drain(g)
		requireFullBlocks(t, blocks, n)
		for _, a := range acc {
			if a.Addr >= 1<<20 {
				t.Fatalf("address %#x out of region", a.Addr)
			}
		}
		// Reset reproduces the same stream.
		if again, _ := drain(g); !slices.Equal(again, acc) {
			t.Fatalf("%d accesses: reset not reproducible", n)
		}
	}
	if _, err := NewUniformRandom(0, 0, 10, cache.Read, 1); err == nil {
		t.Error("zero region accepted")
	}
}

func TestSequentialStreamMostlyHitsWithPrefetcher(t *testing.T) {
	cfg := DefaultConfig(0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Stream 8 MiB (far beyond L2) sequentially.
	g, _ := NewSequential(0, 8<<20, 64, cache.Read)
	r, err := sim.Run(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The prefetcher should cover most of the stream: L2 demand
	// misses well below the no-prefetch line count.
	lines := int64(8 << 20 / 64)
	if r.L2.Misses > lines/4 {
		t.Fatalf("L2 demand misses %d of %d lines; prefetcher ineffective", r.L2.Misses, lines)
	}
	if r.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
	// Average latency must be far below memory latency.
	if r.AvgLatencyNS() > cfg.MemLat/2 {
		t.Fatalf("avg latency %.1f ns; stream should be covered", r.AvgLatencyNS())
	}
}

func TestRandomOverL2Misses(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Prefetcher = false
	sim, _ := New(cfg)
	// 500k draws over 32 MiB touch ~63% of its lines (~20 MiB), a
	// genuine 20x oversubscription of the 1 MiB L2.
	g, _ := NewUniformRandom(0, 32<<20, 500000, cache.Read, 3)
	if _, err := sim.Run(g, 2); err != nil {
		t.Fatal(err)
	}
	r := sim.Result()
	hit := r.L2.HitRatio()
	if hit > 0.15 {
		t.Fatalf("L2 hit ratio %.3f for ~20x oversubscription, want <0.15", hit)
	}
	if r.AvgLatencyNS() < cfg.MemLat/2 {
		t.Fatalf("avg latency %.1f ns too low for random misses", r.AvgLatencyNS())
	}
}

func TestMemSideCacheReducesMemReads(t *testing.T) {
	// Working set fits the memory-side cache: steady-state passes
	// should serve from MCDRAM, not memory.
	cfg := DefaultConfig(8 << 20)
	cfg.Prefetcher = false
	sim, _ := New(cfg)
	g, _ := NewUniformRandom(0, 4<<20, 30000, cache.Read, 11)
	res, err := sim.Run(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemCache.HitRatio() < 0.9 {
		t.Fatalf("memory-side hit ratio %.3f, want >0.9 for resident set", res.MemCache.HitRatio())
	}
	if res.MemReads > res.Accesses/10 {
		t.Fatalf("memory reads %d of %d accesses; cache ineffective", res.MemReads, res.Accesses)
	}
}

func TestMemSideCacheThrashesWhenOversubscribed(t *testing.T) {
	// Effective working set ~3.5x the memory-side cache: hit ratio
	// collapses toward the residency/conflict bound.
	cfg := DefaultConfig(2 << 20)
	cfg.Prefetcher = false
	sim, _ := New(cfg)
	// 300k draws over 8 MiB touch ~118k of 131k lines (~7.2 MiB).
	g, _ := NewUniformRandom(0, 8<<20, 300000, cache.Read, 13)
	res, err := sim.Run(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemCache.HitRatio() > 0.35 {
		t.Fatalf("memory-side hit ratio %.3f for ~3.5x oversubscription", res.MemCache.HitRatio())
	}
}

// Cross-validation: the trace simulator's steady-state streaming hit
// ratio through the memory-side cache should agree with the engine's
// anchored analytic curve within coarse tolerance in the thrashing
// region it was fitted for.
func TestStreamingHitRatioNearAnalyticAnchors(t *testing.T) {
	cal := knl.KNL7210().Cal
	const mcCap = 4 << 20
	for _, r := range []struct {
		ratio float64
		tol   float64
	}{
		{0.5, 0.30}, // trace has no page scatter: contiguous streams hit more
		{1.5, 0.25},
		{2.5, 0.20},
	} {
		cfg := DefaultConfig(mcCap)
		sim, _ := New(cfg)
		ws := uint64(r.ratio * mcCap)
		g, _ := NewSequential(0, ws, 64, cache.Read)
		res, err := sim.Run(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		analytic := cache.DirectMappedStreamHitRatio(units.Bytes(ws), mcCap, cal.CacheModeHitRatioAnchors)
		got := res.MemCache.HitRatio()
		if math.Abs(got-analytic) > r.tol {
			t.Errorf("ratio %.1f: trace %.3f vs analytic %.3f (tol %.2f)", r.ratio, got, analytic, r.tol)
		}
	}
}

func TestWritebackAccounting(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.Prefetcher = false
	sim, _ := New(cfg)
	// Write a region larger than L2 twice: evictions must write back.
	g, _ := NewSequential(0, 4<<20, 64, cache.Write)
	r, err := sim.Run(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.MemWrites == 0 {
		t.Fatal("dirty evictions produced no memory writes")
	}
	if r.MemReads == 0 {
		t.Fatal("write-allocate produced no reads")
	}
}

func TestRunPassesValidation(t *testing.T) {
	sim, _ := New(DefaultConfig(0))
	g, _ := NewSequential(0, 1024, 64, cache.Read)
	if _, err := sim.Run(g, 0); err == nil {
		t.Error("zero passes accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.L1Size = 100 // not a valid geometry
	if _, err := New(cfg); err == nil {
		t.Error("bad L1 geometry accepted")
	}
	cfg = DefaultConfig(100) // bad memory-side size
	if _, err := New(cfg); err == nil {
		t.Error("bad memory-side geometry accepted")
	}
	cfg = DefaultConfig(0)
	cfg.L2Size = 100
	if _, err := New(cfg); err == nil {
		t.Error("bad L2 geometry accepted")
	}
}
