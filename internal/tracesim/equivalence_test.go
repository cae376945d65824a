package tracesim

import (
	"slices"
	"testing"

	"repro/internal/cache"
)

// sliceSource replays a fixed access slice as a BlockSource, in blocks
// whose lengths cycle through cuts (one block when cuts is empty).
type sliceSource struct {
	acc      []Access
	cuts     []int
	pos, blk int
}

func (s *sliceSource) NextBlock() ([]Access, bool) {
	if s.pos >= len(s.acc) {
		return nil, false
	}
	n := len(s.acc) - s.pos
	if len(s.cuts) > 0 {
		n = min(n, s.cuts[s.blk%len(s.cuts)])
		s.blk++
	}
	s.pos += n
	return s.acc[s.pos-n : s.pos], true
}

func (s *sliceSource) Reset() { s.pos, s.blk = 0, 0 }

// drain rewinds src and materialises its whole stream, returning the
// accesses and the length of every block they arrived in.
func drain(src BlockSource) (acc []Access, blocks []int) {
	src.Reset()
	for {
		b, ok := src.NextBlock()
		if !ok {
			return acc, blocks
		}
		acc = append(acc, b...)
		blocks = append(blocks, len(b))
	}
}

// scalarReplay is the reference every replay path is pinned to: it
// feeds acc to Simulator.Access one reference at a time, passes times,
// and returns the statistics of the last pass.
func scalarReplay(t *testing.T, cfg Config, acc []Access, passes int) Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < passes; p++ {
		if p == passes-1 {
			sim.ResetStats()
		}
		for _, a := range acc {
			sim.Access(a)
		}
	}
	return sim.Result()
}

// generators returns fresh fixed-seed instances of every built-in
// generator, keyed by name.
func generators(t *testing.T) map[string]func() BlockSource {
	t.Helper()
	return map[string]func() BlockSource{
		"sequential": func() BlockSource {
			g, err := NewSequential(0, 4<<20, 64, cache.Read)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"sequential-writes": func() BlockSource {
			g, err := NewSequential(1<<12, 2<<20, 32, cache.Write)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"random": func() BlockSource {
			g, err := NewUniformRandom(0, 8<<20, 200000, cache.Read, 42)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"random-writes": func() BlockSource {
			g, err := NewUniformRandom(0, 4<<20, 120000, cache.Write, 7)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"chase": func() BlockSource {
			g, err := NewPointerChase(0, 2<<20, 150000, cache.Read, 99)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
	}
}

func configs() map[string]Config {
	flat := DefaultConfig(0)
	cacheMode := DefaultConfig(4 << 20)
	noPF := DefaultConfig(4 << 20)
	noPF.Prefetcher = false
	return map[string]Config{"flat": flat, "cache-mode": cacheMode, "no-prefetch": noPF}
}

// requireEqualResults demands identical event counts AND identical
// replay time: time is accumulated in integer picoseconds, so every
// replay path must agree byte-for-byte regardless of summation order.
func requireEqualResults(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Accesses != want.Accesses {
		t.Errorf("%s: accesses %d != %d", label, got.Accesses, want.Accesses)
	}
	for _, lvl := range []struct {
		name      string
		want, got cache.Stats
	}{
		{"L1", want.L1, got.L1},
		{"L2", want.L2, got.L2},
		{"MemCache", want.MemCache, got.MemCache},
	} {
		if lvl.want != lvl.got {
			t.Errorf("%s: %s stats %+v != %+v", label, lvl.name, lvl.got, lvl.want)
		}
	}
	if got.MemReads != want.MemReads || got.MemWrites != want.MemWrites {
		t.Errorf("%s: traffic reads/writes %d/%d != %d/%d",
			label, got.MemReads, got.MemWrites, want.MemReads, want.MemWrites)
	}
	if got.Prefetches != want.Prefetches {
		t.Errorf("%s: prefetches %d != %d", label, got.Prefetches, want.Prefetches)
	}
	if got.TotalTimePS != want.TotalTimePS {
		t.Errorf("%s: time %d ps != %d ps", label, got.TotalTimePS, want.TotalTimePS)
	}
	if got.TotalTimeNS != want.TotalTimeNS {
		t.Errorf("%s: derived time %.3f != %.3f", label, got.TotalTimeNS, want.TotalTimeNS)
	}
}

// TestBatchedMatchesScalar proves block-fed Run is bit-identical to
// one-access-at-a-time replay through Access for every generator and
// hierarchy configuration.
func TestBatchedMatchesScalar(t *testing.T) {
	for cfgName, cfg := range configs() {
		for genName, mk := range generators(t) {
			acc, _ := drain(mk())
			want := scalarReplay(t, cfg, acc, 1)
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(mk(), 1)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualResults(t, cfgName+"/"+genName, want, got)
		}
	}
}

// TestPointerChaseGenerator checks the permutation walk: every line of
// the region is visited exactly once per cycle, blocks are full until
// the tail, and the walk is reproducible after Reset.
func TestPointerChaseGenerator(t *testing.T) {
	for _, lines := range []int{64, 2*batchSize + 5} {
		g, err := NewPointerChase(0, uint64(lines)*64, int64(lines), cache.Read, 5)
		if err != nil {
			t.Fatal(err)
		}
		first, blocks := drain(g)
		requireFullBlocks(t, blocks, lines)
		seen := map[uint64]int{}
		for _, a := range first {
			seen[a.Addr]++
		}
		if len(seen) != lines {
			t.Fatalf("cycle visited %d distinct lines, want %d", len(seen), lines)
		}
		for addr, n := range seen {
			if n != 1 {
				t.Fatalf("line %#x visited %d times", addr, n)
			}
			if addr%64 != 0 || addr >= uint64(lines)*64 {
				t.Fatalf("address %#x outside region or misaligned", addr)
			}
		}
		again, _ := drain(g)
		if !slices.Equal(again, first) {
			t.Fatalf("%d lines: reset walk diverges", lines)
		}
	}
	if _, err := NewPointerChase(0, 32, 10, cache.Read, 1); err == nil {
		t.Error("sub-line region accepted")
	}
	if _, err := NewPointerChase(0, 640, 0, cache.Read, 1); err == nil {
		t.Error("zero steps accepted")
	}
}

// requireFullBlocks checks a generator's block boundaries: every block
// but the last holds batchSize accesses, and together they hold n.
func requireFullBlocks(t *testing.T, blocks []int, n int) {
	t.Helper()
	total := 0
	for i, b := range blocks {
		if b <= 0 || b > batchSize || (i < len(blocks)-1 && b != batchSize) {
			t.Fatalf("block %d of %v holds %d accesses", i, blocks, b)
		}
		total += b
	}
	if total != n {
		t.Fatalf("blocks %v hold %d accesses, want %d", blocks, total, n)
	}
}
