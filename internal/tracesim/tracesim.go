// Package tracesim is the functional counterpart of the analytic
// engine: it replays real access streams through the simulated cache
// hierarchy (L1 -> L2 -> optional MCDRAM memory-side cache -> memory)
// and reports hit ratios, traffic, and a simple timing estimate.
//
// It exists to validate, at scaled-down sizes, the closed-form hit
// models the engine uses at paper scale: tests drive the same
// generators through both layers and require agreement.
//
// # Performance architecture
//
// Replay is the hot path of the whole repository, so it has exactly
// one pipeline:
//
//   - One stream interface. Every access stream is a BlockSource: the
//     synthetic generators fill a reusable ~4k-access buffer and hand
//     out views of it, and stored traces (tracestore.Provider.Blocks)
//     hand out decoded blocks in place, so no access is staged twice.
//   - One entry point. Simulator.Run(src, passes) rewinds the source
//     before each pass, walks every block in place, and measures only
//     the last pass. All cache indexing is shift/mask (internal/cache
//     stores line-granular tags), and consecutive references to the
//     same 64 B line are coalesced into an L1 MRU touch that skips the
//     set scan.
//   - One miss log. The L1/L2/prefetcher pass never calls into the
//     memory system: every operation below the L2 is appended to a
//     fixed-capacity log that the memory lanes drain (see Memory
//     lanes). A cache lane's drain is a tight loop of independent tag
//     probes, so when its tag array exceeds the host's caches the
//     host misses overlap instead of serializing behind each access.
//   - One reference. Simulator.Access replays a single reference; it is
//     the scalar oracle the equivalence tests compare Run against.
//
// See the repository doc.go for how to benchmark replay.
//
// # Memory lanes
//
// Memory configurations that differ only below the L2 (flat DDR, flat
// MCDRAM, cache mode, hybrid) see the identical L1/L2/prefetcher
// behaviour for one stream, so a Simulator can carry several memory
// lanes (NewLanes): one upper hierarchy feeds N independent memory
// systems, each with its own memory-side cache, traffic counters and
// demand-fill time. A stream is replayed once for all of them, and
// LaneResult(i) is exactly the Result a single-lane New(cfg_i) replay
// of the same stream produces, whether it is driven by Run or by
// Access.
//
// The lanes are fed from a miss log. Each operation the shared
// hierarchy sends below the L2 is one entry, line<<2 | op, with four
// ops: demand fill, prefetch fill, prefetch fill whose L2 install
// evicted a dirty victim, and demand-path writeback. Run drains the log
// into every lane in stream order at the end of each block, and earlier
// when it could overflow (an access adds at most the prefetch depth
// plus two entries); Access drains it after every reference. Each lane
// therefore applies exactly the operation sequence it would see if it
// were called inline. A flat lane's drain is a handful of counter adds
// over per-opcode counts; a cache lane applies the entries one by one.
package tracesim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/knl"
	"repro/internal/units"
)

// Access is one memory reference.
type Access struct {
	Addr uint64
	Kind cache.AccessKind
}

// BlockSource yields a finite access stream in blocks (for stored
// traces, one decoded varint-delta block per call; for the synthetic
// generators, one filled chunk) as views of the source's reusable
// buffer: the returned slice is valid only until the next call, so
// replay moves no access twice. Sources signal end of stream or error
// with ok=false; error-capable sources (tracestore.BlockReader)
// expose Err for the distinction.
type BlockSource interface {
	// NextBlock returns the next block, or ok=false at end of stream.
	NextBlock() ([]Access, bool)
	// Reset rewinds the source for another pass.
	Reset()
}

// batchSize is the generators' block length: large enough to amortise
// dispatch, small enough to stay resident in the host L1/L2.
const batchSize = 4096

// Sequential streams a region front to back with the given request size.
type Sequential struct {
	Base, Size uint64
	Stride     uint64
	Kind       cache.AccessKind
	pos        uint64
	buf        []Access
}

// NewSequential builds a sequential generator over [base, base+size).
func NewSequential(base, size, stride uint64, kind cache.AccessKind) (*Sequential, error) {
	if size == 0 || stride == 0 {
		return nil, fmt.Errorf("tracesim: size and stride must be positive")
	}
	return &Sequential{Base: base, Size: size, Stride: stride, Kind: kind, buf: make([]Access, batchSize)}, nil
}

// NextBlock implements BlockSource.
//
//simd:hotpath — the synthetic replay feed; runs once per block of every trace-fidelity point.
func (s *Sequential) NextBlock() ([]Access, bool) {
	n := 0
	pos, kind := s.pos, s.Kind
	for n < len(s.buf) && pos < s.Size {
		s.buf[n] = Access{Addr: s.Base + pos, Kind: kind}
		pos += s.Stride
		n++
	}
	s.pos = pos
	return s.buf[:n], n > 0
}

// Reset implements BlockSource.
func (s *Sequential) Reset() { s.pos = 0 }

// UniformRandom generates count random accesses over a region.
type UniformRandom struct {
	Base, Size uint64
	Count      int64
	Kind       cache.AccessKind
	seed       int64
	rng        *rand.Rand
	emitted    int64
	buf        []Access
}

// NewUniformRandom builds a random generator.
func NewUniformRandom(base, size uint64, count int64, kind cache.AccessKind, seed int64) (*UniformRandom, error) {
	if size == 0 || count <= 0 {
		return nil, fmt.Errorf("tracesim: size and count must be positive")
	}
	return &UniformRandom{Base: base, Size: size, Count: count, Kind: kind, seed: seed,
		rng: rand.New(rand.NewSource(seed)), buf: make([]Access, batchSize)}, nil
}

// NextBlock implements BlockSource.
//
//simd:hotpath — the synthetic replay feed; runs once per block of every trace-fidelity point.
func (u *UniformRandom) NextBlock() ([]Access, bool) {
	n := 0
	words := u.Size / 8
	for n < len(u.buf) && u.emitted < u.Count {
		u.emitted++
		off := (u.rng.Uint64() % words) * 8
		u.buf[n] = Access{Addr: u.Base + off, Kind: u.Kind}
		n++
	}
	return u.buf[:n], n > 0
}

// Reset implements BlockSource.
func (u *UniformRandom) Reset() {
	u.rng = rand.New(rand.NewSource(u.seed))
	u.emitted = 0
}

// PointerChase walks a seeded single-cycle random permutation of the
// cache lines in a region: every access depends on the previous one,
// the line sequence has no spatial locality, and a full cycle touches
// every line exactly once. It is the trace-level analogue of the
// latency benchmark's pointer chase (Fig. 3).
type PointerChase struct {
	Base  uint64
	Steps int64
	Kind  cache.AccessKind

	next    []uint32 // permutation: next[i] is the line after line i
	cur     uint32
	emitted int64
	buf     []Access
}

// NewPointerChase builds a chase over size bytes (at least one cache
// line) issuing the given number of dependent accesses.
func NewPointerChase(base, size uint64, steps int64, kind cache.AccessKind, seed int64) (*PointerChase, error) {
	lines := size / uint64(units.CacheLine)
	if lines == 0 || steps <= 0 {
		return nil, fmt.Errorf("tracesim: chase needs at least one line and positive steps")
	}
	if lines > 1<<31 {
		return nil, fmt.Errorf("tracesim: chase region %d lines too large", lines)
	}
	next := make([]uint32, lines)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniform random single-cycle permutation,
	// so the walk visits every line before repeating.
	rng := rand.New(rand.NewSource(seed))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &PointerChase{Base: base, Steps: steps, Kind: kind, next: next, buf: make([]Access, batchSize)}, nil
}

// NextBlock implements BlockSource.
//
//simd:hotpath — the synthetic replay feed; runs once per block of every trace-fidelity point.
func (p *PointerChase) NextBlock() ([]Access, bool) {
	n := 0
	cur := p.cur
	for n < len(p.buf) && p.emitted < p.Steps {
		p.emitted++
		p.buf[n] = Access{Addr: p.Base + uint64(cur)*uint64(units.CacheLine), Kind: p.Kind}
		cur = p.next[cur]
		n++
	}
	p.cur = cur
	return p.buf[:n], n > 0
}

// Reset implements BlockSource.
func (p *PointerChase) Reset() {
	p.cur = 0
	p.emitted = 0
}

// Config selects the simulated hierarchy.
type Config struct {
	L1Size     units.Bytes
	L1Ways     int
	L2Size     units.Bytes
	L2Ways     int
	MemCache   units.Bytes // 0 disables the memory-side cache (flat mode)
	Prefetcher bool
	// Latencies for the timing estimate (ns).
	L1Lat, L2Lat, MemCacheLat, MemLat float64
}

// DefaultConfig returns a scaled-down KNL-like hierarchy suitable for
// trace experiments (full-size MCDRAM would need gigabyte traces).
func DefaultConfig(memCache units.Bytes) Config {
	chip := knl.KNL7210()
	return Config{
		L1Size: chip.L1DPerCore, L1Ways: chip.L1Assoc,
		L2Size: chip.L2PerTile, L2Ways: chip.L2Assoc,
		MemCache:   memCache,
		Prefetcher: true,
		L1Lat:      2, L2Lat: float64(chip.Cal.L2HitLatency),
		MemCacheLat: float64(chip.MCDRAM.IdleLatency),
		MemLat:      float64(chip.DDR.IdleLatency),
	}
}

// Result aggregates a replay.
//
// Replay time is accumulated in integer picoseconds (TotalTimePS):
// the configured float latencies are quantized to ps once, up front,
// and every accumulation is a uint64 add. Integer addition is
// associative, so per-access (Access), block-fed (Run) and multi-lane
// replay produce byte-identical times regardless of summation order —
// the equivalence suite requires exact equality, not a tolerance.
// TotalTimeNS is derived from TotalTimePS when a Result is
// materialized and is kept for reporting compatibility.
type Result struct {
	Accesses    int64
	L1          cache.Stats
	L2          cache.Stats
	MemCache    cache.Stats
	MemReads    int64 // lines fetched from backing memory
	MemWrites   int64 // lines written back to backing memory
	Prefetches  int64
	TotalTimePS uint64
	TotalTimeNS float64
}

// AvgLatencyNS returns the mean access latency of the replay.
func (r Result) AvgLatencyNS() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return r.TotalTimeNS / float64(r.Accesses)
}

// psFromNS quantizes a configured float latency (ns) to integer
// picoseconds. Done once per latency class at construction; replay
// then only adds uint64s.
func psFromNS(ns float64) uint64 {
	if ns <= 0 || math.IsNaN(ns) {
		return 0
	}
	return uint64(math.Round(ns * 1000))
}

// memSys is the memory system below the L2: the optional memory-side
// cache plus traffic counters. Each lane of a simulator owns one.
type memSys struct {
	mc        *cache.MemSideCache
	mcPS      uint64 // memory-side cache hit latency
	memPS     uint64 // backing-memory access latency
	mcMissPS  uint64 // tag check in MCDRAM + DRAM access, quantized once
	memReads  int64
	memWrites int64
}

func newMemSys(cfg Config) (memSys, error) {
	m := memSys{
		mcPS:     psFromNS(cfg.MemCacheLat),
		memPS:    psFromNS(cfg.MemLat),
		mcMissPS: psFromNS(cfg.MemCacheLat*0.3 + cfg.MemLat),
	}
	if cfg.MemCache > 0 {
		mc, err := cache.NewMemSideCache(cfg.MemCache, units.CacheLine)
		if err != nil {
			return memSys{}, err
		}
		m.mc = mc
	}
	return m, nil
}

// fillLine fetches a line from the memory system, returning its
// latency in picoseconds.
func (m *memSys) fillLine(line uint64) uint64 {
	if m.mc == nil {
		m.memReads++
		return m.memPS
	}
	hit, wb := m.mc.AccessLine(line, cache.Read)
	if wb {
		m.memWrites++
	}
	if hit {
		return m.mcPS
	}
	m.memReads++
	return m.mcMissPS
}

// writebackLine sends a dirty line toward memory.
func (m *memSys) writebackLine(line uint64) {
	if m.mc == nil {
		m.memWrites++
		return
	}
	if _, wb := m.mc.AccessLine(line, cache.Write); wb {
		m.memWrites++
	}
}

// resetStats clears the traffic counters but keeps contents.
func (m *memSys) resetStats() {
	m.memReads, m.memWrites = 0, 0
	if m.mc != nil {
		m.mc.ResetStats()
	}
}

// Miss-log opcodes. Everything the shared upper hierarchy sends below
// the L2 is one log entry, line<<2 | op, and each lane applies the
// entries in stream order.
const (
	missDemand        = iota // demand fill: the lane charges its latency
	missPrefetch             // prefetch fill: no replay time
	missPrefetchDirty        // prefetch fill whose L2 install evicted a dirty victim
	missWriteback            // dirty L2 victim on the demand path, line is the victim's
)

// The stream prefetcher's geometry: streams tracked and lines of
// lookahead.
const (
	prefetchStreams = 16
	prefetchDepth   = 8
)

// missLogCap is the miss log's capacity in entries: 8 KiB, small
// enough to stay in the host's L1 while every lane reads it back.
// drainEvery accesses fill at most all of it, since one access logs at
// most a prefetch burst, a writeback and a demand fill.
const (
	missLogCap = 1024
	drainEvery = missLogCap / (prefetchDepth + 2)
)

// lane is one memory system below the shared L2: its own memSys plus
// the demand-fill time it has charged.
type lane struct {
	memSys
	fillPS uint64
}

// drain applies a miss log to the lane's memory-side cache, op by op
// in stream order.
//
//simd:hotpath — runs once per miss-log drain for every cache-mode lane.
func (l *lane) drain(log []uint64) {
	var fill uint64
	for _, e := range log {
		line := e >> 2
		switch e & 3 {
		case missDemand:
			fill += l.fillLine(line)
		case missPrefetch:
			l.fillLine(line)
		case missPrefetchDirty:
			l.fillLine(line)
			l.memWrites++
		case missWriteback:
			l.writebackLine(line)
		}
	}
	l.fillPS += fill
}

// Simulator replays access streams.
type Simulator struct {
	cfg       Config
	lineShift uint
	l1PS      uint64 // quantized L1 hit latency
	l2PS      uint64 // quantized L2 hit latency
	l1        *cache.SetAssoc
	l2        *cache.SetAssoc
	lanes     []lane // memory systems below the L2; lane 0 is Result's
	pf        *cache.StreamPrefetcher
	// res holds the counters the lanes share; its TotalTimePS is the
	// L1/L2 hit time only, each lane adding its own fill time.
	res Result

	// Same-line coalescing: the line touched by the previous access
	// is guaranteed resident in L1, so a repeat reference is an L1
	// MRU touch with no set scan.
	lastLine uint64
	haveLast bool

	// Miss log: the operations below the L2 since the last drain, in
	// stream order. missLog has fixed length missLogCap; the first
	// nlog entries are filled.
	missLog []uint64
	nlog    int
}

// New builds a simulator.
func New(cfg Config) (*Simulator, error) {
	return NewLanes([]Config{cfg})
}

// NewLanes builds a simulator with one memory lane per config. The
// configs must agree on everything above the memory system (L1, L2,
// prefetcher, L1/L2 latencies), which lane 0 defines; they may differ
// in MemCache, MemCacheLat and MemLat.
func NewLanes(cfgs []Config) (*Simulator, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("tracesim: need at least one lane")
	}
	cfg := cfgs[0]
	lanes := make([]lane, len(cfgs))
	for i, c := range cfgs {
		if c.L1Size != cfg.L1Size || c.L1Ways != cfg.L1Ways || c.L2Size != cfg.L2Size || c.L2Ways != cfg.L2Ways ||
			c.Prefetcher != cfg.Prefetcher || c.L1Lat != cfg.L1Lat || c.L2Lat != cfg.L2Lat {
			return nil, fmt.Errorf("tracesim: lane %d differs from lane 0 above the memory system", i)
		}
		mem, err := newMemSys(c)
		if err != nil {
			return nil, err
		}
		lanes[i].memSys = mem
	}
	l1, err := cache.NewSetAssoc("L1D", cfg.L1Size, cfg.L1Ways, units.CacheLine)
	if err != nil {
		return nil, err
	}
	l2, err := cache.NewSetAssoc("L2", cfg.L2Size, cfg.L2Ways, units.CacheLine)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros64(uint64(units.CacheLine))),
		l1PS:      psFromNS(cfg.L1Lat),
		l2PS:      psFromNS(cfg.L2Lat),
		l1:        l1,
		l2:        l2,
		lanes:     lanes,
		missLog:   make([]uint64, missLogCap),
	}
	if cfg.Prefetcher {
		s.pf = cache.NewStreamPrefetcher(prefetchStreams, prefetchDepth, units.CacheLine)
	}
	return s, nil
}

// Access performs one reference through the hierarchy and returns its
// latency in nanoseconds (lane 0's).
//
//simd:oracle per-access reference that the equivalence tests pin block replay (Run) against
func (s *Simulator) Access(a Access) float64 {
	fill := s.lanes[0].fillPS
	ps := s.accessLine(a.Addr>>s.lineShift, a.Kind)
	s.drain()
	return float64(ps+s.lanes[0].fillPS-fill) * 1e-3
}

// logMiss appends one operation below the L2 to the miss log.
func (s *Simulator) logMiss(line, op uint64) {
	s.missLog[s.nlog] = line<<2 | op
	s.nlog++
}

// accessLine is the replay fast path, operating on line addresses. It
// runs the shared L1/L2/prefetcher and logs every operation below the
// L2 for the lanes; it returns the L1 or L2 hit latency in picoseconds,
// or 0 on an L2 miss, whose fill time each lane charges when the log
// is drained.
//
//simd:hotpath — runs once per simulated access.
func (s *Simulator) accessLine(line uint64, kind cache.AccessKind) uint64 {
	s.res.Accesses++

	if s.haveLast && line == s.lastLine {
		// Coalesced: the previous access left this line in L1 as the
		// MRU way; touch it without a set scan.
		s.l1.TouchMRU(kind)
		s.res.TotalTimePS += s.l1PS
		return s.l1PS
	}
	s.lastLine, s.haveLast = line, true

	if hit, _, _ := s.l1.AccessLine(line, kind); hit {
		s.res.TotalTimePS += s.l1PS
		return s.l1PS
	}
	// Miss in L1 (the line is now installed there, write-allocate):
	// consult the prefetcher on the L2 stream.
	if s.pf != nil {
		for _, pl := range s.pf.ObserveLines(line) {
			// Fused residency check + install: one tag scan per
			// candidate instead of a ContainsLine/InstallLine pair.
			if installed, _, wb := s.l2.InstallLineIfAbsent(pl); installed {
				s.res.Prefetches++
				if wb {
					s.logMiss(pl, missPrefetchDirty)
				} else {
					s.logMiss(pl, missPrefetch)
				}
			}
		}
	}
	// One L2 access decides hit/miss; on a miss the line is installed
	// (write-allocate) and a dirty victim may need writing back.
	hit, wbLine, wb := s.l2.AccessLine(line, kind)
	if wb {
		s.logMiss(wbLine, missWriteback)
	}
	if hit {
		s.res.TotalTimePS += s.l2PS
		return s.l2PS
	}
	// L2 miss: every lane fetches from its memory (possibly via its
	// memory-side cache).
	s.logMiss(line, missDemand)
	return 0
}

// drain empties the miss log into every lane. Flat lanes see each
// operation as a fixed cost, so they take per-opcode counts gathered
// in one pass over the log; cache lanes replay the entries.
//
//simd:hotpath — runs once per block and once per drainEvery accesses.
func (s *Simulator) drain() {
	log := s.missLog[:s.nlog]
	s.nlog = 0
	var n [4]int64
	for _, e := range log {
		n[e&3]++
	}
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.mc != nil {
			l.drain(log)
			continue
		}
		l.memReads += n[missDemand] + n[missPrefetch] + n[missPrefetchDirty]
		l.memWrites += n[missPrefetchDirty] + n[missWriteback]
		l.fillPS += uint64(n[missDemand]) * l.memPS
	}
}

// accessBatch replays one block of accesses, draining the miss log
// into the lanes every drainEvery accesses and at the end of the block.
//
//simd:hotpath — runs once per block of every replay.
func (s *Simulator) accessBatch(batch []Access) {
	shift := s.lineShift
	for len(batch) > 0 {
		n := min(len(batch), drainEvery)
		for _, a := range batch[:n] {
			s.accessLine(a.Addr>>shift, a.Kind)
		}
		s.drain()
		batch = batch[n:]
	}
}

// Run replays src `passes` times, rewinding it before each pass, and
// returns the statistics of the final pass only (steady state: the
// earlier passes only warm the hierarchy). Each block is consumed in
// place; the Result is byte-identical to feeding the same stream to
// Access one reference at a time.
func (s *Simulator) Run(src BlockSource, passes int) (Result, error) {
	if passes <= 0 {
		return Result{}, fmt.Errorf("tracesim: passes must be positive")
	}
	for p := 0; p < passes; p++ {
		if p == passes-1 {
			s.ResetStats()
		}
		src.Reset()
		for {
			b, ok := src.NextBlock()
			if !ok {
				break
			}
			s.accessBatch(b)
		}
	}
	return s.Result(), nil
}

// Result returns the accumulated statistics of lane 0.
func (s *Simulator) Result() Result { return s.LaneResult(0) }

// LaneResult returns the accumulated statistics of lane i: exactly
// what a single-lane simulator built from that lane's config reports
// for the same stream.
func (s *Simulator) LaneResult(i int) Result {
	l := &s.lanes[i]
	r := s.res
	r.L1 = s.l1.Stats()
	r.L2 = s.l2.Stats()
	r.MemReads = l.memReads
	r.MemWrites = l.memWrites
	if l.mc != nil {
		r.MemCache = l.mc.Stats()
	}
	r.TotalTimePS += l.fillPS
	r.TotalTimeNS = float64(r.TotalTimePS) * 1e-3
	return r
}

// ResetStats clears counters but keeps cache contents (for steady-
// state measurement).
func (s *Simulator) ResetStats() {
	s.res = Result{}
	s.l1.ResetStats()
	s.l2.ResetStats()
	for i := range s.lanes {
		s.lanes[i].resetStats()
		s.lanes[i].fillPS = 0
	}
}
