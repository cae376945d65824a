package cache

import (
	"math/bits"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func mustCache(t *testing.T, cap units.Bytes, ways int) *SetAssoc {
	t.Helper()
	c, err := NewSetAssoc("test", cap, ways, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewSetAssocValidation(t *testing.T) {
	if _, err := NewSetAssoc("x", 0, 8, 64); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewSetAssoc("x", 32*units.KiB, 0, 64); err == nil {
		t.Error("zero ways accepted")
	}
	if _, err := NewSetAssoc("x", 100, 1, 64); err == nil {
		t.Error("non-multiple capacity accepted")
	}
	if _, err := NewSetAssoc("x", 3*64*4, 4, 64); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	c := mustCache(t, 32*units.KiB, 8)
	if c.Name() != "test" || c.Sets() != 64 || c.Ways() != 8 {
		t.Fatalf("geometry: %s %d sets %d ways", c.Name(), c.Sets(), c.Ways())
	}
	if c.Capacity() != 32*units.KiB {
		t.Fatalf("capacity = %v", c.Capacity())
	}
}

// TestNewSetAssocRejectsWideGeometry: the packed LRU stack holds 16
// ways, and no simulated chip needs more, so wider caches are refused.
func TestNewSetAssocRejectsWideGeometry(t *testing.T) {
	for _, ways := range []int{17, 20, 64} {
		if _, err := NewSetAssoc("x", units.Bytes(8*ways*64), ways, 64); err == nil {
			t.Errorf("%d ways accepted", ways)
		}
	}
	if _, err := NewSetAssoc("x", 8*16*64, 16, 64); err != nil {
		t.Errorf("16 ways rejected: %v", err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := mustCache(t, 4*64*2, 2) // 4 sets x 2 ways
	if hit, _, _ := c.Access(0, Read); hit {
		t.Fatal("cold access hit")
	}
	if hit, _, _ := c.Access(0, Read); !hit {
		t.Fatal("warm access missed")
	}
	if hit, _, _ := c.Access(63, Read); !hit {
		t.Fatal("same-line access missed")
	}
	if hit, _, _ := c.Access(64, Read); hit {
		t.Fatal("next line should miss")
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, 1*64*2, 2) // 1 set x 2 ways
	c.Access(0*64, Read)
	c.Access(1*64, Read)
	c.Access(0*64, Read) // line 0 is now MRU
	c.Access(2*64, Read) // evicts line 1 (LRU)
	if !c.Contains(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(64) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(128) {
		t.Fatal("new line not resident")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := mustCache(t, 1*64*1, 1) // direct-mapped single set
	c.Access(0, Write)
	hit, wbAddr, wb := c.Access(64, Read)
	if hit {
		t.Fatal("conflicting access hit")
	}
	if !wb || wbAddr != 0 {
		t.Fatalf("expected writeback of line 0, got wb=%v addr=%#x", wb, wbAddr)
	}
	// Clean eviction: no writeback.
	_, _, wb = c.Access(128, Read)
	if wb {
		t.Fatal("clean line triggered writeback")
	}
	if c.Stats().DirtyWritebacks != 1 {
		t.Fatalf("writeback count = %d", c.Stats().DirtyWritebacks)
	}
}

func TestInstallDoesNotCountMiss(t *testing.T) {
	c := mustCache(t, 2*64*2, 2)
	c.Install(0)
	if c.Stats().Misses != 0 {
		t.Fatal("install counted as miss")
	}
	if hit, _, _ := c.Access(0, Read); !hit {
		t.Fatal("installed line not resident")
	}
	// Re-install of resident line is a no-op.
	c.Install(0)
	if c.Stats().Evictions != 0 {
		t.Fatal("re-install evicted something")
	}
}

func TestFlush(t *testing.T) {
	c := mustCache(t, 4*64*2, 2)
	c.Access(0, Write)
	c.Access(64, Read)
	if wb := c.Flush(); wb != 1 {
		t.Fatalf("flush writebacks = %d, want 1", wb)
	}
	if c.Contains(0) || c.Contains(64) {
		t.Fatal("flush left lines resident")
	}
}

func TestResetStats(t *testing.T) {
	c := mustCache(t, 4*64*2, 2)
	c.Access(0, Read)
	c.ResetStats()
	if st := c.Stats(); st.Hits+st.Misses != 0 {
		t.Fatal("ResetStats did not clear")
	}
	if !c.Contains(0) {
		t.Fatal("ResetStats dropped contents")
	}
}

func TestHitRatio(t *testing.T) {
	var s Stats
	if s.HitRatio() != 0 {
		t.Fatal("empty stats ratio nonzero")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.HitRatio() != 0.75 {
		t.Fatalf("ratio = %v", s.HitRatio())
	}
}

// Working set within capacity must produce 100% hits after warmup,
// regardless of the access sequence: the LRU residency invariant.
func TestFitWorkingSetAlwaysHitsProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		c, err := NewSetAssoc("p", 16*64, 16, 64) // fully assoc, 16 lines
		if err != nil {
			return false
		}
		// Warm all 16 lines.
		for i := uint64(0); i < 16; i++ {
			c.Access(i*64, Read)
		}
		c.ResetStats()
		for _, s := range seq {
			addr := uint64(s%16) * 64
			if hit, _, _ := c.Access(addr, Read); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// naiveLRU is a deliberately simple reference model: per-set slices in
// recency order. The fast SetAssoc implementation (shift/mask
// indexing, SoA tags, MRU memo, unrolled scans) must agree with it
// event-for-event.
type naiveLRU struct {
	sets, ways                          int
	lineSize                            uint64
	order                               [][]naiveLine // per set, index 0 = LRU, last = MRU
	hits, misses, evictions, writebacks int64
}

type naiveLine struct {
	tag   uint64
	dirty bool
}

func newNaiveLRU(sets, ways int, lineSize uint64) *naiveLRU {
	return &naiveLRU{sets: sets, ways: ways, lineSize: lineSize, order: make([][]naiveLine, sets)}
}

func (n *naiveLRU) access(addr uint64, kind AccessKind) (hit bool, wbAddr uint64, wb bool) {
	lineAddr := addr / n.lineSize
	set := int(lineAddr % uint64(n.sets))
	tag := lineAddr / uint64(n.sets)
	q := n.order[set]
	for i := range q {
		if q[i].tag == tag {
			l := q[i]
			if kind == Write {
				l.dirty = true
			}
			n.order[set] = append(append(q[:i:i], q[i+1:]...), l)
			n.hits++
			return true, 0, false
		}
	}
	n.misses++
	if len(q) == n.ways {
		v := q[0]
		n.evictions++
		if v.dirty {
			n.writebacks++
			wbAddr = (v.tag*uint64(n.sets) + uint64(set)) * n.lineSize
			wb = true
		}
		q = q[1:]
	}
	n.order[set] = append(append([]naiveLine{}, q...), naiveLine{tag: tag, dirty: kind == Write})
	return false, wbAddr, wb
}

// TestSetAssocMatchesNaiveModel replays a mixed random/sequential
// stream through SetAssoc and the reference model and requires
// identical per-access outcomes and aggregate counters.
func TestSetAssocMatchesNaiveModel(t *testing.T) {
	// Every legal associativity runs on the packed nibble-stack LRU:
	// the unrolled 4/8/16-way scans and the generic scan (1, 2, 3).
	for _, ways := range []int{1, 2, 4, 8, 16, 3} {
		sets := 8
		c, err := NewSetAssoc("ref", units.Bytes(sets*ways*64), ways, 64)
		if err != nil {
			t.Fatal(err)
		}
		ref := newNaiveLRU(sets, ways, 64)
		// Deterministic pseudo-random stream with heavy set reuse and
		// same-line repeats (exercises the MRU memo).
		state := uint64(12345)
		var last uint64
		for i := 0; i < 20000; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			addr := (state >> 33) % uint64(sets*ways*64*3)
			if state&7 == 0 {
				addr = last // repeated same-line reference
			}
			last = addr
			kind := Read
			if state&16 != 0 {
				kind = Write
			}
			h1, a1, w1 := c.Access(addr, kind)
			h2, a2, w2 := ref.access(addr, kind)
			if h1 != h2 || w1 != w2 || a1 != a2 {
				t.Fatalf("ways=%d access %d addr=%#x: fast (%v,%#x,%v) vs naive (%v,%#x,%v)",
					ways, i, addr, h1, a1, w1, h2, a2, w2)
			}
		}
		st := c.Stats()
		if st.Hits != ref.hits || st.Misses != ref.misses ||
			st.Evictions != ref.evictions || st.DirtyWritebacks != ref.writebacks {
			t.Fatalf("ways=%d counters: fast %+v vs naive hits=%d misses=%d ev=%d wb=%d",
				ways, st, ref.hits, ref.misses, ref.evictions, ref.writebacks)
		}
	}
}

// Name returns the cache's label.
func (c *SetAssoc) Name() string { return c.name }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// Capacity returns the data capacity.
func (c *SetAssoc) Capacity() units.Bytes {
	return units.Bytes(c.sets*c.ways) * c.lineSize
}

// Contains reports whether the line holding addr is resident.
func (c *SetAssoc) Contains(addr uint64) bool {
	return c.ContainsLine(addr >> c.lineShift)
}

// Flush invalidates everything, returning how many dirty lines were
// written back.
func (c *SetAssoc) Flush() int64 {
	var wb int64
	for s := range c.stack {
		wb += int64(bits.OnesCount16(c.dmask[s]))
		c.stack[s] = 0
		c.dmask[s] = 0
	}
	for i := range c.tags {
		c.tags[i] = 0
	}
	for i := range c.vcnt {
		c.vcnt[i] = 0
	}
	c.mruSet = -1
	c.stats.DirtyWritebacks += wb
	return wb
}

// Access performs one access by byte address. It returns whether it
// hit, and if a dirty line had to be written back, its byte address
// (else 0) with wb=true.
func (c *SetAssoc) Access(addr uint64, kind AccessKind) (hit bool, wbAddr uint64, wb bool) {
	hit, wbLine, wb := c.AccessLine(addr>>c.lineShift, kind)
	if wb {
		wbAddr = wbLine << c.lineShift
	}
	return hit, wbAddr, wb
}

// ContainsLine reports whether the given line is resident (without
// updating recency or stats); used by tests and the prefetcher.
func (c *SetAssoc) ContainsLine(lineAddr uint64) bool {
	if c.mruSet >= 0 && lineAddr == c.mruLine {
		return true
	}
	set := lineAddr & c.setMask
	stag := (lineAddr >> c.setShift) + 1
	return c.findWay(int(set)*c.ways, stag) >= 0
}

// Install inserts a line by byte address without counting a demand
// miss (prefetch fill). It returns writeback info like Access.
func (c *SetAssoc) Install(addr uint64) (wbAddr uint64, wb bool) {
	wbLine, wb := c.InstallLine(addr >> c.lineShift)
	if wb {
		wbAddr = wbLine << c.lineShift
	}
	return wbAddr, wb
}

// InstallLine inserts a line (by line address) without counting a
// demand miss (prefetch fill). It returns writeback info like
// AccessLine. An already-resident line is left untouched — residency
// check and install share one tag scan.
func (c *SetAssoc) InstallLine(lineAddr uint64) (wbLine uint64, wb bool) {
	_, wbLine, wb = c.InstallLineIfAbsent(lineAddr)
	return wbLine, wb
}
