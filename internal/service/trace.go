package service

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/tracesim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Trace fidelity: instead of evaluating the analytic model, replay a
// synthetic access stream shaped by the workload's Table I pattern
// through the functional cache hierarchy (internal/tracesim — the
// repo's optimised hot path). This is the expensive query class the
// content-addressed cache exists for: a point costs milliseconds to
// compute and nothing to re-serve.
//
// Footprints are scaled 1:1024 (a full-size MCDRAM would need
// gigabyte traces — see tracesim.DefaultConfig) and bounded so one
// point stays in the low-millisecond range. Seeds derive from the
// point with its config cleared, so a trace outcome is deterministic
// and cache-coherent, and every memory configuration of one (SKU,
// workload, size, threads) replays the identical stream: only the
// memory below the L2 changes between them, as in the paper's
// same-application comparison. That is what lets RunTraceGroup replay
// the stream once, with one tracesim memory lane per configuration.

// traceScaleShift is the footprint scale: 1/1024.
const traceScaleShift = 10

// Footprint clamp for a single trace point.
const (
	traceMinFootprint = units.Bytes(1 << 20)  // 1 MiB
	traceMaxFootprint = units.Bytes(32 << 20) // 32 MiB
)

// traceFootprint is the scaled, clamped footprint a trace point of
// the given size replays. RunTraceGroup streams it and pointGroups
// sizes a group's work by it, so the two cannot drift apart.
func traceFootprint(size units.Bytes) units.Bytes {
	return min(max(size>>traceScaleShift, traceMinFootprint), traceMaxFootprint)
}

// tracePasses is how many times the stream sweeps its footprint (the
// second pass measures warm-cache behaviour).
const tracePasses = 2

// campaignReplayPasses is how many times a replay campaign sweeps each
// stored trace.
const campaignReplayPasses = 1

// TraceGroupKey identifies the access stream of a FidelityTrace or
// FidelityReplay point: the key of the point with its memory
// configuration cleared. Points with equal group keys replay the same
// stream (for replay points, the same stored trace on the same SKU).
func TraceGroupKey(p campaign.Point) string {
	p.Config = engine.MemoryConfig{}
	return p.Key()
}

// traceSeed derives a deterministic generator seed from the point's
// stream, so it is the same for every memory configuration.
func traceSeed(p campaign.Point) int64 {
	k := TraceGroupKey(p)
	var buf [8]byte
	copy(buf[:], k)
	return int64(binary.LittleEndian.Uint64(buf[:]) >> 1)
}

// replayHierarchy maps a memory configuration onto a scaled-down
// functional hierarchy for the given SKU: cache mode gets the scaled
// MCDRAM as memory-side cache, the flat modes get the corresponding
// backing latency, hybrid gets the non-flat MCDRAM fraction as cache.
// Both the trace fidelity (synthetic streams) and the replay path
// (stored traces) run through this one mapping, so their results are
// directly comparable.
func (e *Executor) replayHierarchy(sku string, mc engine.MemoryConfig) (tracesim.Config, error) {
	sys, err := e.System(sku)
	if err != nil {
		return tracesim.Config{}, err
	}
	chip := sys.Machine.Chip
	scaledMC := chip.MCDRAM.Capacity >> traceScaleShift

	cfg := tracesim.DefaultConfig(0)
	// Re-anchor the hierarchy on the actual chip (DefaultConfig is
	// always the 7210).
	cfg.L1Size, cfg.L1Ways = chip.L1DPerCore, chip.L1Assoc
	cfg.L2Size, cfg.L2Ways = chip.L2PerTile, chip.L2Assoc
	cfg.L2Lat = float64(chip.Cal.L2HitLatency)
	cfg.MemCacheLat = float64(chip.MCDRAM.IdleLatency)

	dram := float64(chip.DDR.IdleLatency)
	hbm := float64(chip.MCDRAM.IdleLatency)
	switch mc.Kind {
	case engine.BindDRAM:
		cfg.MemLat = dram
	case engine.BindHBM:
		cfg.MemLat = hbm
	case engine.InterleaveFlat:
		// Pages alternate devices; the average line cost follows.
		cfg.MemLat = (dram + hbm) / 2
	case engine.CacheMode:
		cfg.MemCache = scaledMC
		cfg.MemLat = dram
	case engine.Hybrid:
		// The non-flat fraction of MCDRAM stays a memory-side cache.
		cfg.MemCache = units.Bytes(float64(scaledMC) * (1 - mc.HybridFlatFraction))
		cfg.MemLat = dram
	default:
		return tracesim.Config{}, fmt.Errorf("service: no trace mapping for config %v", mc)
	}
	return cfg, nil
}

// laneConfigs maps each config onto the scaled hierarchy of sku (see
// replayHierarchy), with the prefetcher on or off: one memory lane
// each. Every replay in the service runs on these lanes: synthetic
// trace groups and stored traces alike.
func (e *Executor) laneConfigs(sku string, configs []engine.MemoryConfig, prefetch bool) ([]tracesim.Config, error) {
	cfgs := make([]tracesim.Config, len(configs))
	for i, mc := range configs {
		cfg, err := e.replayHierarchy(sku, mc)
		if err != nil {
			return nil, err
		}
		cfg.Prefetcher = prefetch
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// runLanes replays src `passes` times on one memory lane per config
// and returns each lane's result, exactly what a replay under that
// config alone reports, plus the counters of the shared hierarchy above
// the lanes. A non-nil rec records the replay's miss log.
func runLanes(cfgs []tracesim.Config, src tracesim.BlockSource, passes int, rec tracesim.MissRecorder) ([]tracesim.Result, tracesim.Upper, error) {
	sim, err := tracesim.NewLanes(cfgs)
	if err != nil {
		return nil, tracesim.Upper{}, err
	}
	sim.Record(rec)
	if _, err := sim.Run(src, passes); err != nil {
		return nil, tracesim.Upper{}, err
	}
	res := make([]tracesim.Result, len(cfgs))
	for i := range res {
		res[i] = sim.LaneResult(i)
	}
	return res, sim.Upper(), nil
}

// runTracePoint executes one FidelityTrace point as a group of one.
func (e *Executor) runTracePoint(ctx context.Context, p campaign.Point) (campaign.Outcome, error) {
	outs, err := e.RunTraceGroup(ctx, []campaign.Point{p})
	if err != nil {
		return campaign.Outcome{}, err
	}
	return outs[0], nil
}

// RunTraceGroup executes FidelityTrace points that share one stream
// (equal TraceGroupKey) in a single replay, one memory lane per point:
// outcome i equals RunPoint(points[i]) exactly. Cancellation is
// checked before the replay starts, so a group is the unit of work.
func (e *Executor) RunTraceGroup(ctx context.Context, points []campaign.Point) ([]campaign.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, nil
	}
	p := points[0]
	stream := TraceGroupKey(p)
	configs := make([]engine.MemoryConfig, len(points))
	for i, q := range points {
		if q.Fidelity != campaign.FidelityTrace || TraceGroupKey(q) != stream {
			return nil, fmt.Errorf("service: trace point %s does not share the stream of %s", q, p)
		}
		configs[i] = q.Config
	}
	sys, err := e.System(p.SKU)
	if err != nil {
		return nil, err
	}
	mdl, err := sys.Workload(p.Workload)
	if err != nil {
		return nil, err
	}
	info := mdl.Info()

	foot := traceFootprint(p.Size)
	var src tracesim.BlockSource
	lines := int64(foot / units.CacheLine)
	if info.Pattern == workload.PatternRandom {
		src, err = tracesim.NewUniformRandom(0, uint64(foot), lines, cache.Read, traceSeed(p))
	} else {
		src, err = tracesim.NewSequential(0, uint64(foot), uint64(units.CacheLine), cache.Read)
	}
	if err != nil {
		return nil, err
	}
	cfgs, err := e.laneConfigs(p.SKU, configs, true)
	if err != nil {
		return nil, err
	}
	results, _, err := runLanes(cfgs, src, tracePasses, nil)
	if err != nil {
		return nil, err
	}

	outs := make([]campaign.Outcome, len(points))
	for i, q := range points {
		outs[i] = replayOutcome(q, newReplayResult(results[i]), false)
	}
	return outs, nil
}

// groupMemo is a campaign task's memo for one shared stream: the first
// member that needs a computation runs the whole group, and the later
// ones are served from the memo. The compute span of the member that
// ran the group carries lanes=<n>; a member served from the memo
// carries shared=true.
type groupMemo[T any] struct {
	lanes int
	run   func(context.Context) ([]T, error)
	outs  []T
	err   error
	ran   bool
}

// get returns member i's result, running the group on first use.
func (m *groupMemo[T]) get(ctx context.Context, i int, span *obs.Span) (T, error) {
	if m.ran {
		span.SetAttr("shared", "true")
	} else {
		m.ran = true
		span.SetAttr("lanes", strconv.Itoa(m.lanes))
		m.outs, m.err = m.run(ctx)
	}
	if m.err != nil {
		var zero T
		return zero, m.err
	}
	return m.outs[i], nil
}

// pointGroup is one pool task of a campaign: the indices of its
// points, plus the points themselves when they share one stream, and
// the task's work estimate (streamWork; 0 without a stream).
type pointGroup struct {
	idx    []int
	stream []campaign.Point // nil for a single point of another fidelity
	work   int64
}

// pointGroups partitions a campaign's points into pool tasks, longest
// first: trace and replay points that share a stream (equal
// TraceGroupKey) form one group, weighted by streamWork; every other
// point is a group of its own with work 0. The sort is stable, so
// groups of equal work keep their order of first appearance and the
// other points follow the stream groups in point order. accesses maps
// a stored trace id to its access count.
func pointGroups(points []campaign.Point, accesses map[string]int64) []pointGroup {
	var groups []pointGroup
	byStream := make(map[string]int)
	for i, p := range points {
		if p.Fidelity != campaign.FidelityTrace && p.Fidelity != campaign.FidelityReplay {
			groups = append(groups, pointGroup{idx: []int{i}})
			continue
		}
		k := TraceGroupKey(p)
		g, ok := byStream[k]
		if !ok {
			g = len(groups)
			byStream[k] = g
			groups = append(groups, pointGroup{work: streamWork(p, accesses)})
		}
		groups[g].idx = append(groups[g].idx, i)
		groups[g].stream = append(groups[g].stream, p)
	}
	slices.SortStableFunc(groups, func(a, b pointGroup) int { return cmp.Compare(b.work, a.work) })
	return groups
}

// streamWork estimates the accesses one replay of p's stream makes:
// the lines of the clamped footprint RunTraceGroup sweeps for a trace
// point, the stored trace's length for a replay point, times the
// passes. Lanes are left out: every group of one campaign shares one
// config list, so they cannot change the order.
func streamWork(p campaign.Point, accesses map[string]int64) int64 {
	if p.Fidelity == campaign.FidelityReplay {
		return accesses[p.TraceID] * campaignReplayPasses
	}
	return int64(traceFootprint(p.Size)/units.CacheLine) * tracePasses
}

// streamCompute returns the compute the members of one stream group
// share, or nil for a group without a stream. The first member that
// misses the point cache replays the stream once, one memory lane per
// member; later misses are served from the memo. A replay member
// resolves through the replay cache first, so campaigns and
// /v1/replay share entries.
func (s *Server) streamCompute(stream []campaign.Point) func(context.Context, int, *obs.Span) (campaign.Outcome, error) {
	if len(stream) == 0 {
		return nil
	}
	if stream[0].Fidelity == campaign.FidelityTrace {
		m := &groupMemo[campaign.Outcome]{lanes: len(stream), run: func(ctx context.Context) ([]campaign.Outcome, error) {
			return s.exec.RunTraceGroup(ctx, stream)
		}}
		return m.get
	}
	qs := make([]replayQuery, len(stream))
	for i, p := range stream {
		qs[i] = replayQuery{trace: p.TraceID, config: p.Config, sku: p.SKU, passes: campaignReplayPasses, prefetch: true}
	}
	m := &groupMemo[replayResult]{lanes: len(qs), run: func(ctx context.Context) ([]replayResult, error) {
		return s.computeReplay(ctx, qs)
	}}
	return func(ctx context.Context, i int, span *obs.Span) (campaign.Outcome, error) {
		res, cached, err := s.replays.GetOrCompute(qs[i].Key(), func() (replayResult, error) {
			return m.get(ctx, i, span)
		})
		if err != nil {
			return campaign.Outcome{}, fmt.Errorf("service: %s: %w", stream[i], err)
		}
		return replayOutcome(stream[i], res, cached), nil
	}
}
