package tracesim

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/units"
)

// ShardedSimulator replays an access stream through the same hierarchy
// as Simulator, but partitions the L2 and memory-side cache across N
// concurrent workers ("tiles"). The split is address-interleaved at
// line granularity: shard = lineAddr mod N. Because N divides the set
// count of every sharded level, each cache set maps wholly to one
// worker, and the dispatcher enqueues operations in stream order, so
// every set observes exactly the operation sequence scalar replay
// would apply to it. Aggregate hit/miss/eviction/writeback counts and
// memory traffic are therefore identical to Simulator's — the
// equivalence tests enforce this — while independent sets are
// simulated concurrently.
//
// The L1 and the stream prefetcher stay in the dispatcher (they are
// core-private in the modelled machine and their decisions depend on
// the serial access order); workers own per-tile L2 and MCDRAM shards.
type ShardedSimulator struct {
	cfg        Config
	shardMask  uint64
	shardShift uint
	lineShift  uint

	l1PS uint64 // quantized L1 hit latency
	l1   *cache.SetAssoc
	pf   *cache.StreamPrefetcher

	workers []*shardWorker
	wg      sync.WaitGroup

	res      Result // dispatcher-side: accesses + L1-hit time
	lastLine uint64
	haveLast bool

	fill [][]shardOp // per-worker chunk being filled
}

// shardOp encodes one worker operation: the shard-local line address
// shifted left by two, with the opcode in the low bits.
type shardOp uint64

const (
	opRead     = 0
	opWrite    = 1
	opPrefetch = 2

	opChunk    = 512 // ops per channel send
	chunkQuota = 8   // in-flight chunks per worker
)

type shardWorker struct {
	l2PS uint64 // quantized L2 hit latency
	l2   *cache.SetAssoc
	mem  memSys // one set-interleaved shard of the memory system

	in   chan []shardOp
	free chan []shardOp

	timePS     uint64
	prefetches int64
}

// NewSharded builds a sharded simulator with the given worker count.
// Shards must be a power of two and divide the set counts of the L2
// and (when enabled) the memory-side cache; shards=1 degenerates to a
// scalar-equivalent single worker.
func NewSharded(cfg Config, shards int) (*ShardedSimulator, error) {
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("tracesim: shard count %d must be a positive power of two", shards)
	}
	if int64(cfg.L2Size)%int64(shards) != 0 {
		return nil, fmt.Errorf("tracesim: %d shards do not divide L2 size %v", shards, cfg.L2Size)
	}
	if cfg.MemCache > 0 && int64(cfg.MemCache)%int64(shards) != 0 {
		return nil, fmt.Errorf("tracesim: %d shards do not divide memory-side cache %v", shards, cfg.MemCache)
	}
	l1, err := cache.NewSetAssoc("L1D", cfg.L1Size, cfg.L1Ways, units.CacheLine)
	if err != nil {
		return nil, err
	}
	sh := &ShardedSimulator{
		cfg:        cfg,
		shardMask:  uint64(shards - 1),
		shardShift: uint(bits.TrailingZeros64(uint64(shards))),
		lineShift:  uint(bits.TrailingZeros64(uint64(units.CacheLine))),
		l1PS:       psFromNS(cfg.L1Lat),
		l1:         l1,
		fill:       make([][]shardOp, shards),
	}
	if cfg.Prefetcher {
		sh.pf = cache.NewStreamPrefetcher(prefetchStreams, prefetchDepth, units.CacheLine)
	}
	for i := 0; i < shards; i++ {
		l2, err := cache.NewSetAssoc(fmt.Sprintf("L2.%d", i), cfg.L2Size/units.Bytes(shards), cfg.L2Ways, units.CacheLine)
		if err != nil {
			return nil, fmt.Errorf("tracesim: shard L2 geometry: %w", err)
		}
		mem, err := newMemSys(cfg, cfg.MemCache/units.Bytes(shards))
		if err != nil {
			return nil, fmt.Errorf("tracesim: shard memory-side geometry: %w", err)
		}
		w := &shardWorker{
			l2PS: psFromNS(cfg.L2Lat),
			l2:   l2,
			mem:  mem,
			in:   make(chan []shardOp, chunkQuota),
			free: make(chan []shardOp, chunkQuota),
		}
		for c := 0; c < chunkQuota; c++ {
			w.free <- make([]shardOp, 0, opChunk)
		}
		sh.workers = append(sh.workers, w)
	}
	return sh, nil
}

// start launches one goroutine per worker for the duration of a run.
func (sh *ShardedSimulator) start() {
	for _, w := range sh.workers {
		sh.wg.Add(1)
		go func(w *shardWorker) {
			defer sh.wg.Done()
			for chunk := range w.in {
				for _, op := range chunk {
					w.apply(op)
				}
				w.free <- chunk[:0]
			}
		}(w)
	}
}

// stop flushes partial chunks, closes the queues and waits for the
// workers to drain; afterwards all worker state is quiesced and safe
// to read.
func (sh *ShardedSimulator) stop() {
	for i, w := range sh.workers {
		if len(sh.fill[i]) > 0 {
			w.in <- sh.fill[i]
			sh.fill[i] = nil
		}
		close(w.in)
	}
	sh.wg.Wait()
	for _, w := range sh.workers {
		// Rebuild the queues for the next run.
		w.in = make(chan []shardOp, chunkQuota)
	}
}

// enqueue appends one operation to the owning worker's current chunk.
func (sh *ShardedSimulator) enqueue(line uint64, code shardOp) {
	shard := int(line & sh.shardMask)
	w := sh.workers[shard]
	buf := sh.fill[shard]
	if buf == nil {
		buf = <-w.free
	}
	buf = append(buf, shardOp(line>>sh.shardShift)<<2|code)
	if len(buf) == opChunk {
		w.in <- buf
		buf = nil
	}
	sh.fill[shard] = buf
}

// accessLine mirrors Simulator.accessLine up to the L1/prefetch
// boundary, then defers L2-and-beyond work to the owning shard.
func (sh *ShardedSimulator) accessLine(line uint64, kind cache.AccessKind) {
	sh.res.Accesses++

	if sh.haveLast && line == sh.lastLine {
		sh.l1.TouchMRU(kind)
		sh.res.TotalTimePS += sh.l1PS
		return
	}
	sh.lastLine, sh.haveLast = line, true

	if hit, _, _ := sh.l1.AccessLine(line, kind); hit {
		sh.res.TotalTimePS += sh.l1PS
		return
	}
	if sh.pf != nil {
		for _, pl := range sh.pf.ObserveLines(line) {
			sh.enqueue(pl, opPrefetch)
		}
	}
	code := shardOp(opRead)
	if kind == cache.Write {
		code = opWrite
	}
	sh.enqueue(line, code)
}

// apply executes one operation against the worker's L2/MCDRAM shard,
// replicating Simulator's scalar semantics op-for-op.
func (w *shardWorker) apply(op shardOp) {
	line := uint64(op >> 2)
	switch op & 3 {
	case opPrefetch:
		if installed, _, wb := w.l2.InstallLineIfAbsent(line); installed {
			w.prefetches++
			w.mem.fillLine(line) // prefetch fills do not add replay time
			if wb {
				w.mem.memWrites++
			}
		}
	default:
		kind := cache.Read
		if op&3 == opWrite {
			kind = cache.Write
		}
		hit, wbLine, wb := w.l2.AccessLine(line, kind)
		if wb {
			w.mem.writebackLine(wbLine)
		}
		if hit {
			w.timePS += w.l2PS
		} else {
			w.timePS += w.mem.fillLine(line)
		}
	}
}

// Run replays src `passes` times across the shards, rewinding it
// before each pass, and returns the merged statistics of the final pass
// only. The dispatcher walks each block in place, with no staging copy,
// and the aggregate Result is identical to Simulator.Run's over the
// same stream.
func (sh *ShardedSimulator) Run(src BlockSource, passes int) (Result, error) {
	if passes <= 0 {
		return Result{}, fmt.Errorf("tracesim: passes must be positive")
	}
	for p := 0; p < passes; p++ {
		if p == passes-1 {
			sh.ResetStats()
		}
		src.Reset()
		sh.start()
		for {
			b, ok := src.NextBlock()
			if !ok {
				break
			}
			for _, a := range b {
				sh.accessLine(a.Addr>>sh.lineShift, a.Kind)
			}
		}
		sh.stop()
	}
	return sh.Result(), nil
}

// Result merges the dispatcher and worker statistics. Only call
// between runs (Run waits for the workers before returning).
func (sh *ShardedSimulator) Result() Result {
	r := sh.res
	r.L1 = sh.l1.Stats()
	for _, w := range sh.workers {
		r.L2.Add(w.l2.Stats())
		if w.mem.mc != nil {
			r.MemCache.Add(w.mem.mc.Stats())
		}
		r.MemReads += w.mem.memReads
		r.MemWrites += w.mem.memWrites
		r.Prefetches += w.prefetches
		r.TotalTimePS += w.timePS
	}
	// Integer merge order is irrelevant: the summed picoseconds are
	// byte-identical to scalar replay's.
	r.TotalTimeNS = float64(r.TotalTimePS) * 1e-3
	return r
}

// ResetStats clears counters but keeps cache contents.
func (sh *ShardedSimulator) ResetStats() {
	sh.res = Result{}
	sh.l1.ResetStats()
	for _, w := range sh.workers {
		w.l2.ResetStats()
		w.mem.resetStats()
		w.timePS = 0
		w.prefetches = 0
	}
}
