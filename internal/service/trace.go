package service

import (
	"context"
	"encoding/binary"
	"fmt"
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

// tracePasses is how many times the stream sweeps its footprint (the
// second pass measures warm-cache behaviour).
const tracePasses = 2

// TraceGroupKey identifies the access stream of a FidelityTrace point:
// the key of the point with its memory configuration cleared. Points
// with equal group keys replay the same stream.
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

// traceConfig maps a point's memory configuration onto the scaled
// hierarchy (see replayHierarchy).
func (e *Executor) traceConfig(p campaign.Point) (tracesim.Config, error) {
	return e.replayHierarchy(p.SKU, p.Config)
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
	cfgs := make([]tracesim.Config, len(points))
	for i, q := range points {
		if q.Fidelity != campaign.FidelityTrace || TraceGroupKey(q) != stream {
			return nil, fmt.Errorf("service: trace point %s does not share the stream of %s", q, p)
		}
		cfg, err := e.traceConfig(q)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
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

	foot := p.Size >> traceScaleShift
	if foot < traceMinFootprint {
		foot = traceMinFootprint
	}
	if foot > traceMaxFootprint {
		foot = traceMaxFootprint
	}

	sim, err := tracesim.NewLanes(cfgs)
	if err != nil {
		return nil, err
	}

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
	if _, err := sim.Run(src, tracePasses); err != nil {
		return nil, err
	}

	outs := make([]campaign.Outcome, len(points))
	for i, q := range points {
		res := sim.LaneResult(i)
		outs[i] = campaign.Outcome{
			Point:  q,
			Metric: "ns/access",
			Value:  res.AvgLatencyNS(),
			Trace: &campaign.TraceStats{
				Accesses:     res.Accesses,
				L1HitRate:    res.L1.HitRatio(),
				L2HitRate:    res.L2.HitRatio(),
				MCHitRate:    res.MemCache.HitRatio(),
				MemReads:     res.MemReads,
				MemWrites:    res.MemWrites,
				AvgLatencyNS: res.AvgLatencyNS(),
			},
		}
	}
	return outs, nil
}

// traceGroupMemo is a campaign task's memo for one trace stream: the
// first member that misses the point cache replays the whole group,
// and the later misses are served from the memo.
type traceGroupMemo struct {
	exec   *Executor
	points []campaign.Point
	outs   []campaign.Outcome
	err    error
	ran    bool
}

// outcome returns member i's outcome, replaying the group on first
// use. The compute span of the member that replayed the group carries
// lanes=<n>; a member served from the memo carries shared=true.
func (m *traceGroupMemo) outcome(ctx context.Context, i int, span *obs.Span) (campaign.Outcome, error) {
	if m.ran {
		span.SetAttr("shared", "true")
	} else {
		m.ran = true
		span.SetAttr("lanes", strconv.Itoa(len(m.points)))
		m.outs, m.err = m.exec.RunTraceGroup(ctx, m.points)
	}
	if m.err != nil {
		return campaign.Outcome{}, m.err
	}
	return m.outs[i], nil
}

// pointGroup is one pool task of a campaign: the indices of its
// points, plus the memo they share when they are one trace stream.
type pointGroup struct {
	idx   []int
	trace *traceGroupMemo // nil for a single non-trace point
}

// pointGroups partitions a campaign's points into pool tasks: trace
// points that share a stream (equal TraceGroupKey) form one group, in
// order of first appearance; every other point is a group of its own.
func pointGroups(exec *Executor, points []campaign.Point) []pointGroup {
	var groups []pointGroup
	byStream := make(map[string]int)
	for i, p := range points {
		if p.Fidelity != campaign.FidelityTrace {
			groups = append(groups, pointGroup{idx: []int{i}})
			continue
		}
		k := TraceGroupKey(p)
		g, ok := byStream[k]
		if !ok {
			g = len(groups)
			byStream[k] = g
			groups = append(groups, pointGroup{trace: &traceGroupMemo{exec: exec}})
		}
		groups[g].idx = append(groups[g].idx, i)
		groups[g].trace.points = append(groups[g].trace.points, p)
	}
	return groups
}
