package tracesim

import (
	"fmt"
	"testing"

	"repro/internal/cache"
)

// pinStreams builds the fixed-seed streams of the pinned-result table:
// an 18 MiB footprint, past the 16 MiB scaled memory-side cache.
func pinStreams(t *testing.T) map[string][]Access {
	t.Helper()
	const footprint = 18 << 20
	seq, err := NewSequential(0, footprint, 64, cache.Read)
	if err != nil {
		t.Fatal(err)
	}
	random, err := NewUniformRandom(0, footprint, 120000, cache.Read, 51)
	if err != nil {
		t.Fatal(err)
	}
	chase, err := NewPointerChase(0, footprint, 120000, cache.Read, 52)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]Access{"random-25pct-writes": writeMix(footprint, 120000, 53)}
	for name, src := range map[string]BlockSource{"sequential": seq, "uniform-random": random, "pointer-chase": chase} {
		out[name], _ = drain(src)
	}
	return out
}

// pinConfigs are the four memory configurations of the table: flat
// DDR, flat MCDRAM, cache mode over 16 MiB and a hybrid half split.
func pinConfigs() ([]string, []Config) {
	all := laneConfigs(DefaultConfig(0), 16<<20)
	names := []string{"dram", "hbm", "cache", "hybrid0.50"}
	cfgs := make([]Config, len(names))
	for i, n := range names {
		cfgs[i] = all[n]
	}
	return names, cfgs
}

// pinnedResults are the exact Results of single-config replays of
// pinStreams, recorded before the memory lanes were fed from a miss
// log. Every replay path must keep reproducing them bit for bit.
var pinnedResults = []struct {
	stream, config string
	passes         int
	want           Result
}{
	{"pointer-chase", "dram", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 119488, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 1, Misses: 119999, Evictions: 103651, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 120035, MemWrites: 0, Prefetches: 36, TotalTimePS: 15599880000, TotalTimeNS: 1.559988e+07}},
	{"pointer-chase", "dram", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 120000, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 2, Misses: 119998, Evictions: 120034, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 120034, MemWrites: 0, Prefetches: 36, TotalTimePS: 15599760000, TotalTimeNS: 1.559976e+07}},
	{"pointer-chase", "hbm", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 119488, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 1, Misses: 119999, Evictions: 103651, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 120035, MemWrites: 0, Prefetches: 36, TotalTimePS: 17999860000, TotalTimeNS: 1.799986e+07}},
	{"pointer-chase", "hbm", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 120000, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 2, Misses: 119998, Evictions: 120034, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 120034, MemWrites: 0, Prefetches: 36, TotalTimePS: 17999720000, TotalTimeNS: 1.799972e+07}},
	{"pointer-chase", "cache", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 119488, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 1, Misses: 119999, Evictions: 103651, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 22, Misses: 120013, Evictions: 5402, DirtyWritebacks: 0}, MemReads: 120013, MemWrites: 0, Prefetches: 36, TotalTimePS: 20999610000, TotalTimeNS: 2.099961e+07}},
	{"pointer-chase", "cache", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 120000, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 2, Misses: 119998, Evictions: 120034, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 109230, Misses: 10804, Evictions: 10804, DirtyWritebacks: 0}, MemReads: 10804, MemWrites: 0, Prefetches: 36, TotalTimePS: 18269820000, TotalTimeNS: 1.826982e+07}},
	{"pointer-chase", "hybrid0.50", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 119488, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 1, Misses: 119999, Evictions: 103651, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 16, Misses: 120019, Evictions: 30356, DirtyWritebacks: 0}, MemReads: 120019, MemWrites: 0, Prefetches: 36, TotalTimePS: 20999660000, TotalTimeNS: 2.099966e+07}},
	{"pointer-chase", "hybrid0.50", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 0, Misses: 120000, Evictions: 120000, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 2, Misses: 119998, Evictions: 120034, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 61528, Misses: 58506, Evictions: 58506, DirtyWritebacks: 0}, MemReads: 58506, MemWrites: 0, Prefetches: 36, TotalTimePS: 19461995000, TotalTimeNS: 1.9461995e+07}},
	{"random-25pct-writes", "dram", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119367, DirtyWritebacks: 29516}, L2: cache.Stats{Hits: 63543, Misses: 56336, Evictions: 98977, DirtyWritebacks: 25135}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 115361, MemWrites: 25135, Prefetches: 59025, TotalTimePS: 7959352000, TotalTimeNS: 7.959352e+06}},
	{"random-25pct-writes", "dram", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119879, DirtyWritebacks: 29652}, L2: cache.Stats{Hits: 63769, Misses: 56110, Evictions: 114973, DirtyWritebacks: 29331}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 114973, MemWrites: 29331, Prefetches: 58863, TotalTimePS: 7932232000, TotalTimeNS: 7.932232e+06}},
	{"random-25pct-writes", "hbm", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119367, DirtyWritebacks: 29516}, L2: cache.Stats{Hits: 63543, Misses: 56336, Evictions: 98977, DirtyWritebacks: 25135}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 115361, MemWrites: 25135, Prefetches: 59025, TotalTimePS: 9086072000, TotalTimeNS: 9.086072e+06}},
	{"random-25pct-writes", "hbm", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119879, DirtyWritebacks: 29652}, L2: cache.Stats{Hits: 63769, Misses: 56110, Evictions: 114973, DirtyWritebacks: 29331}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 114973, MemWrites: 29331, Prefetches: 58863, TotalTimePS: 9054432000, TotalTimeNS: 9.054432e+06}},
	{"random-25pct-writes", "cache", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119367, DirtyWritebacks: 29516}, L2: cache.Stats{Hits: 63543, Misses: 56336, Evictions: 98977, DirtyWritebacks: 25135}, MemCache: cache.Stats{Hits: 23765, Misses: 104166, Evictions: 6916, DirtyWritebacks: 719}, MemReads: 103883, MemWrites: 13284, Prefetches: 59025, TotalTimePS: 10307872000, TotalTimeNS: 1.0307872e+07}},
	{"random-25pct-writes", "cache", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119879, DirtyWritebacks: 29652}, L2: cache.Stats{Hits: 63769, Misses: 56110, Evictions: 114973, DirtyWritebacks: 29331}, MemCache: cache.Stats{Hits: 117129, Misses: 12322, Evictions: 12322, DirtyWritebacks: 1650}, MemReads: 12013, MemWrites: 16503, Prefetches: 58863, TotalTimePS: 9218332000, TotalTimeNS: 9.218332e+06}},
	{"random-25pct-writes", "hybrid0.50", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119367, DirtyWritebacks: 29516}, L2: cache.Stats{Hits: 63543, Misses: 56336, Evictions: 98977, DirtyWritebacks: 25135}, MemCache: cache.Stats{Hits: 21960, Misses: 105971, Evictions: 22094, DirtyWritebacks: 2236}, MemReads: 105156, MemWrites: 14801, Prefetches: 59025, TotalTimePS: 10331472000, TotalTimeNS: 1.0331472e+07}},
	{"random-25pct-writes", "hybrid0.50", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 121, Misses: 119879, Evictions: 119879, DirtyWritebacks: 29652}, L2: cache.Stats{Hits: 63769, Misses: 56110, Evictions: 114973, DirtyWritebacks: 29331}, MemCache: cache.Stats{Hits: 90834, Misses: 38617, Evictions: 38617, DirtyWritebacks: 5163}, MemReads: 37677, MemWrites: 20016, Prefetches: 58863, TotalTimePS: 9635882000, TotalTimeNS: 9.635882e+06}},
	{"sequential", "dram", 1, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294400, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 278536, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949360000, TotalTimeNS: 2.94936e+06}},
	{"sequential", "dram", 2, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294912, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 294920, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949360000, TotalTimeNS: 2.94936e+06}},
	{"sequential", "hbm", 1, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294400, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 278536, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949400000, TotalTimeNS: 2.9494e+06}},
	{"sequential", "hbm", 2, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294912, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 294920, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949400000, TotalTimeNS: 2.9494e+06}},
	{"sequential", "cache", 1, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294400, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 278536, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 294920, Evictions: 32776, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949450000, TotalTimeNS: 2.94945e+06}},
	{"sequential", "cache", 2, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294912, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 294920, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 229368, Misses: 65552, Evictions: 65552, DirtyWritebacks: 0}, MemReads: 65552, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949450000, TotalTimeNS: 2.94945e+06}},
	{"sequential", "hybrid0.50", 1, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294400, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 278536, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 294920, Evictions: 163848, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949450000, TotalTimeNS: 2.94945e+06}},
	{"sequential", "hybrid0.50", 2, Result{Accesses: 294912, L1: cache.Stats{Hits: 0, Misses: 294912, Evictions: 294912, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 294910, Misses: 2, Evictions: 294920, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 294920, Evictions: 294920, DirtyWritebacks: 0}, MemReads: 294920, MemWrites: 0, Prefetches: 294918, TotalTimePS: 2949450000, TotalTimeNS: 2.94945e+06}},
	{"uniform-random", "dram", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 224, Misses: 119776, Evictions: 119264, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6037, Misses: 113739, Evictions: 97379, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 113763, MemWrites: 0, Prefetches: 24, TotalTimePS: 14846888000, TotalTimeNS: 1.4846888e+07}},
	{"uniform-random", "dram", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 225, Misses: 119775, Evictions: 119775, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6519, Misses: 113256, Evictions: 113280, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 113280, MemWrites: 0, Prefetches: 24, TotalTimePS: 14788920000, TotalTimeNS: 1.478892e+07}},
	{"uniform-random", "hbm", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 224, Misses: 119776, Evictions: 119264, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6037, Misses: 113739, Evictions: 97379, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 113763, MemWrites: 0, Prefetches: 24, TotalTimePS: 17121668000, TotalTimeNS: 1.7121668e+07}},
	{"uniform-random", "hbm", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 225, Misses: 119775, Evictions: 119775, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6519, Misses: 113256, Evictions: 113280, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 0, Misses: 0, Evictions: 0, DirtyWritebacks: 0}, MemReads: 113280, MemWrites: 0, Prefetches: 24, TotalTimePS: 17054040000, TotalTimeNS: 1.705404e+07}},
	{"uniform-random", "cache", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 224, Misses: 119776, Evictions: 119264, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6037, Misses: 113739, Evictions: 97379, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 14767, Misses: 98996, Evictions: 4134, DirtyWritebacks: 0}, MemReads: 98996, MemWrites: 0, Prefetches: 24, TotalTimePS: 19596093000, TotalTimeNS: 1.9596093e+07}},
	{"uniform-random", "cache", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 225, Misses: 119775, Evictions: 119775, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6519, Misses: 113256, Evictions: 113280, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 105916, Misses: 7364, Evictions: 7364, DirtyWritebacks: 0}, MemReads: 7364, MemWrites: 0, Prefetches: 24, TotalTimePS: 17238140000, TotalTimeNS: 1.723814e+07}},
	{"uniform-random", "hybrid0.50", 1, Result{Accesses: 120000, L1: cache.Stats{Hits: 224, Misses: 119776, Evictions: 119264, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6037, Misses: 113739, Evictions: 97379, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 12390, Misses: 101373, Evictions: 23631, DirtyWritebacks: 0}, MemReads: 101373, MemWrites: 0, Prefetches: 24, TotalTimePS: 19655493000, TotalTimeNS: 1.9655493e+07}},
	{"uniform-random", "hybrid0.50", 2, Result{Accesses: 120000, L1: cache.Stats{Hits: 225, Misses: 119775, Evictions: 119775, DirtyWritebacks: 0}, L2: cache.Stats{Hits: 6519, Misses: 113256, Evictions: 113280, DirtyWritebacks: 0}, MemCache: cache.Stats{Hits: 72284, Misses: 40996, Evictions: 40996, DirtyWritebacks: 0}, MemReads: 40996, MemWrites: 0, Prefetches: 24, TotalTimePS: 18078715000, TotalTimeNS: 1.8078715e+07}},
}

// TestPinnedResults replays every row of pinnedResults four ways: a
// single-lane Run over one stream-sized block (the miss log fills and
// drains mid-block), one four-lane Run over odd block lengths, the
// per-reference Access oracle, and DrainLanes over the miss log a
// recorded dram replay of the stream left. All must equal the recorded
// Result.
func TestPinnedResults(t *testing.T) {
	streams := pinStreams(t)
	names, cfgs := pinConfigs()
	lane := map[string]int{}
	for i, n := range names {
		lane[n] = i
	}
	multi := map[string]*Simulator{}
	recs := map[string]*recordedMisses{}
	for _, row := range pinnedResults {
		label := fmt.Sprintf("%s/%s/passes=%d", row.stream, row.config, row.passes)
		acc, cfg := streams[row.stream], cfgs[lane[row.config]]
		if got := scalarReplay(t, cfg, acc, row.passes); got != row.want {
			t.Errorf("%s: Access: %+v != %+v", label, got, row.want)
		}
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := sim.Run(&sliceSource{acc: acc}, row.passes); err != nil || got != row.want {
			t.Errorf("%s: Run: %+v != %+v (%v)", label, got, row.want, err)
		}
		key := fmt.Sprintf("%s/%d", row.stream, row.passes)
		if multi[key] == nil {
			if multi[key], err = NewLanes(cfgs); err != nil {
				t.Fatal(err)
			}
			if _, err := multi[key].Run(&sliceSource{acc: acc, cuts: []int{777, 1, 4096}}, row.passes); err != nil {
				t.Fatal(err)
			}
		}
		if got := multi[key].LaneResult(lane[row.config]); got != row.want {
			t.Errorf("%s: lanes Run: %+v != %+v", label, got, row.want)
		}
		if recs[key] == nil {
			recs[key] = recordMisses(t, cfgs[0], acc, row.passes)
		}
		rec := recs[key]
		got, err := DrainLanes([]Config{cfg}, rec.up, rec.warm, &logSource{log: rec.log, cut: 333})
		if err != nil || got[0] != row.want {
			t.Errorf("%s: drained from a recorded dram replay: %+v != %+v (%v)", label, got, row.want, err)
		}
	}
}

// recordedMisses is one replay's recorded miss log: what DrainLanes
// replays the lanes from.
type recordedMisses struct {
	log  []uint64
	warm int64
	up   Upper
}

func (r *recordedMisses) Misses(log []uint64) { r.log = append(r.log, log...) }
func (r *recordedMisses) Warm()               { r.warm = int64(len(r.log)) }

// recordMisses replays acc under cfg with a recorder attached.
func recordMisses(t *testing.T, cfg Config, acc []Access, passes int) *recordedMisses {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordedMisses{}
	sim.Record(rec)
	if _, err := sim.Run(&sliceSource{acc: acc}, passes); err != nil {
		t.Fatal(err)
	}
	rec.up = sim.Upper()
	return rec
}

// logSource serves a recorded miss log in blocks of cut entries.
type logSource struct {
	log []uint64
	cut int
}

func (s *logSource) NextMisses() ([]uint64, bool) {
	if len(s.log) == 0 {
		return nil, false
	}
	n := min(len(s.log), s.cut)
	b := s.log[:n]
	s.log = s.log[n:]
	return b, true
}

// TestDrainLanesRejects: lanes that disagree above the memory system,
// or a log that ends inside its own warm-up, yield no result.
func TestDrainLanesRejects(t *testing.T) {
	cfg := DefaultConfig(0)
	other := cfg
	other.L2Ways = 8
	if _, err := DrainLanes([]Config{cfg, other}, Upper{}, 0, &logSource{cut: 1}); err == nil {
		t.Error("lanes of two hierarchies accepted")
	}
	if _, err := DrainLanes([]Config{cfg}, Upper{}, 3, &logSource{log: []uint64{4, 8}, cut: 1}); err == nil {
		t.Error("a log shorter than its warm-up accepted")
	}
}
