package tracesim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/units"
)

// laneNames lists laneConfigs' keys in a fixed order.
var laneNames = []string{"dram", "hbm", "interleave", "cache", "hybrid0.25", "hybrid0.50", "hybrid0.75"}

// laneConfigs returns the memory configurations the service maps onto
// the hierarchy (flat DDR, flat MCDRAM, interleave, cache mode and
// three hybrid splits), over a base hierarchy with a scaled
// memory-side cache of mc bytes.
func laneConfigs(base Config, mc units.Bytes) map[string]Config {
	dram, hbm := 130.0, 150.0
	out := map[string]Config{}
	set := func(name string, cache units.Bytes, memLat float64) {
		c := base
		c.MemCache, c.MemCacheLat, c.MemLat = cache, hbm, memLat
		out[name] = c
	}
	set("dram", 0, dram)
	set("hbm", 0, hbm)
	set("interleave", 0, (dram+hbm)/2)
	set("cache", mc, dram)
	for _, f := range []float64{0.25, 0.5, 0.75} {
		set(fmt.Sprintf("hybrid%.2f", f), units.Bytes(float64(mc)*(1-f)), dram)
	}
	return out
}

// writeMix is a stream with a quarter writes that alternates
// sequential runs (which train the prefetcher, so prefetch installs
// evict dirty L2 victims) with uniform random references.
func writeMix(footprint uint64, n int, seed int64) []Access {
	rng := rand.New(rand.NewSource(seed))
	acc := make([]Access, 0, n)
	var seq uint64
	for len(acc) < n {
		addr := (rng.Uint64() % (footprint / 8)) * 8
		if (len(acc)/2048)%2 == 0 {
			addr, seq = seq%footprint, seq+64
		}
		kind := cache.Read
		if rng.Intn(4) == 0 {
			kind = cache.Write
		}
		acc = append(acc, Access{Addr: addr, Kind: kind})
	}
	return acc
}

// TestLanesMatchSingleConfig pins the lane guarantee: every lane of a
// multi-lane replay is struct-equal to a single-config replay of the
// same stream, for every lane set, stream and pass count.
func TestLanesMatchSingleConfig(t *testing.T) {
	cfgs := laneConfigs(DefaultConfig(0), 1<<20)
	rev := make([]string, len(laneNames))
	for i, n := range laneNames {
		rev[len(laneNames)-1-i] = n
	}
	laneSets := [][]string{laneNames, rev, {"cache"}, {"dram", "hbm"}, {"hybrid0.50", "cache", "hybrid0.50"}}
	streams := map[string]func() BlockSource{
		"sequential": func() BlockSource {
			g, _ := NewSequential(0, 3<<20, 64, cache.Read)
			return g
		},
		"uniform-random": func() BlockSource {
			g, _ := NewUniformRandom(0, 3<<20, 30000, cache.Read, 11)
			return g
		},
		"pointer-chase": func() BlockSource {
			g, _ := NewPointerChase(0, 2<<20, 30000, cache.Read, 12)
			return g
		},
		"random-25pct-writes": func() BlockSource {
			return &sliceSource{acc: writeMix(3<<20, 30000, 13)}
		},
	}
	// Single-config scalar references, memoized across lane sets.
	refs := map[string]Result{}
	reference := func(name, stream string, passes int) Result {
		key := fmt.Sprintf("%s/%s/%d", name, stream, passes)
		if r, ok := refs[key]; ok {
			return r
		}
		acc, _ := drain(streams[stream]())
		r := scalarReplay(t, cfgs[name], acc, passes)
		refs[key] = r
		return r
	}
	for _, names := range laneSets {
		lane := make([]Config, len(names))
		for i, n := range names {
			lane[i] = cfgs[n]
		}
		for streamName, mk := range streams {
			for _, passes := range []int{1, 2, 3} {
				label := fmt.Sprintf("%v/%s/passes=%d", names, streamName, passes)
				sim, err := NewLanes(lane)
				if err != nil {
					t.Fatal(err)
				}
				got0, err := sim.Run(mk(), passes)
				if err != nil {
					t.Fatal(err)
				}
				if got0 != sim.LaneResult(0) {
					t.Errorf("%s: Result is not lane 0", label)
				}
				for i, name := range names {
					if got, want := sim.LaneResult(i), reference(name, streamName, passes); got != want {
						t.Errorf("%s/lane%d: %+v != %+v", label, i, got, want)
					}
				}
			}
		}
	}
}

// TestLaneWritebacksDiffer guards the table test against vacuity: on
// the write-mix stream the memory lanes really do diverge, and the
// flat lanes see writebacks that include prefetch-evicted victims.
func TestLaneWritebacksDiffer(t *testing.T) {
	cfgs := laneConfigs(DefaultConfig(0), 1<<20)
	sim, err := NewLanes([]Config{cfgs["dram"], cfgs["cache"]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(&sliceSource{acc: writeMix(3<<20, 30000, 13)}, 1); err != nil {
		t.Fatal(err)
	}
	flat, mc := sim.LaneResult(0), sim.LaneResult(1)
	if flat.Prefetches == 0 || flat.MemWrites == 0 {
		t.Fatalf("stream exercises no prefetch/writeback: %+v", flat)
	}
	if flat.MemReads == mc.MemReads || flat.TotalTimePS == mc.TotalTimePS {
		t.Errorf("cache lane indistinguishable from flat lane: %+v vs %+v", mc, flat)
	}
	if flat.L2 != mc.L2 || flat.Prefetches != mc.Prefetches {
		t.Errorf("lanes disagree above the memory system")
	}
}

// TestNewLanesRejectsMismatchedUpper checks that every lane must share
// lane 0's hierarchy above the memory system, while the memory-side
// fields may differ freely.
func TestNewLanesRejectsMismatchedUpper(t *testing.T) {
	base := DefaultConfig(0)
	if _, err := NewLanes(nil); err == nil {
		t.Error("zero lanes accepted")
	}
	for name, mutate := range map[string]func(*Config){
		"L1Size":     func(c *Config) { c.L1Size *= 2 },
		"L1Ways":     func(c *Config) { c.L1Ways *= 2 },
		"L2Size":     func(c *Config) { c.L2Size *= 2 },
		"L2Ways":     func(c *Config) { c.L2Ways *= 2 },
		"Prefetcher": func(c *Config) { c.Prefetcher = !c.Prefetcher },
		"L1Lat":      func(c *Config) { c.L1Lat++ },
		"L2Lat":      func(c *Config) { c.L2Lat++ },
	} {
		other := base
		mutate(&other)
		if _, err := NewLanes([]Config{base, other}); err == nil {
			t.Errorf("lane with different %s accepted", name)
		}
	}
	other := base
	other.MemCache, other.MemCacheLat, other.MemLat = 1<<20, base.MemCacheLat+1, base.MemLat+1
	if _, err := NewLanes([]Config{base, other}); err != nil {
		t.Errorf("memory-side differences rejected: %v", err)
	}
}

// fuzzBase is a tiny hierarchy so short fuzz inputs reach evictions,
// prefetches and memory-side conflicts.
func fuzzBase() Config {
	return Config{
		L1Size: 1 << 10, L1Ways: 2, L2Size: 4 << 10, L2Ways: 4,
		Prefetcher: true, L1Lat: 2, L2Lat: 17, MemCacheLat: 150, MemLat: 130,
	}
}

// FuzzLaneEquivalence decodes arbitrary bytes into lane configs and an
// (addr, kind) stream, replays it block-fed through a multi-lane Run,
// and requires every lane to equal a single-config scalar replay
// (Access) exactly. Layout of data: byte 0 holds the lane count (low 2
// bits + 1) and pass count (bit 2 + 1); the next lane-count bytes pick
// each lane's config; every following 3 bytes are one access (16-bit
// line index, low bit of the third byte selects a write). Each byte of
// cuts is one block length (byte + 1), cycled over the stream; with no
// cuts the stream is a single block.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add([]byte{0x03, 0, 1, 2, 3, 0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0, 3, 1}, []byte{})
	f.Add([]byte{0x06, 3, 4, 5, 0, 16, 1, 0, 17, 0, 0, 18, 1, 0, 16, 0}, []byte{0, 2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		if len(data) < 1 {
			return
		}
		nLanes, passes := int(data[0]&3)+1, int(data[0]>>2&1)+1
		data = data[1:]
		if len(data) < nLanes {
			return
		}
		menu := laneConfigs(fuzzBase(), 8<<10)
		cfgs := make([]Config, nLanes)
		for i := range cfgs {
			cfgs[i] = menu[laneNames[int(data[i])%len(laneNames)]]
		}
		data = data[nLanes:]
		var acc []Access
		for ; len(data) >= 3; data = data[3:] {
			line := uint64(data[0]) | uint64(data[1])<<8
			kind := cache.Read
			if data[2]&1 == 1 {
				kind = cache.Write
			}
			acc = append(acc, Access{Addr: line*64 + uint64(data[2]>>1&63), Kind: kind})
		}
		if len(acc) == 0 {
			return
		}
		src := &sliceSource{acc: acc}
		for _, c := range cuts {
			src.cuts = append(src.cuts, int(c)+1)
		}
		sim, err := NewLanes(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(src, passes); err != nil {
			t.Fatal(err)
		}
		for i, c := range cfgs {
			if got, want := sim.LaneResult(i), scalarReplay(t, c, acc, passes); got != want {
				t.Fatalf("lane %d: %+v != %+v", i, got, want)
			}
		}
	})
}
