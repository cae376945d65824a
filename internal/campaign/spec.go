// Package campaign turns declarative sweep specifications — workload x
// memory configuration x problem-size grid x thread grid — into
// deduplicated sets of fully-resolved simulation points, and renders
// the collected outcomes as the aggregate tables a what-if study
// reads.
//
// A campaign is the paper's recurring workload shape: "what does
// workload W at size S under configuration C and T threads cost, and
// which mode should I pick?" asked over a whole grid at once. The
// package is transport-agnostic; internal/service executes campaigns
// behind its HTTP API and cmd/simctl submits them.
package campaign

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/units"
)

// DefaultSKU is the machine preset used when a spec names none: the
// paper's testbed chip.
const DefaultSKU = "7210"

// Fidelity levels: how a point is executed.
const (
	// FidelityModel evaluates the analytic performance model
	// (sub-microsecond; the paper's figures).
	FidelityModel = "model"
	// FidelityTrace replays a pattern-shaped synthetic trace through
	// the functional cache hierarchy (milliseconds per point; the
	// expensive queries the result cache amortizes). The replay is a
	// single access stream, so trace points are thread-independent:
	// Expand canonicalizes their Threads to 0 and a thread grid
	// collapses to one point per (workload, config, size).
	FidelityTrace = "trace"
	// FidelityReplay replays a stored trace (internal/tracestore, by
	// content address) through the functional cache hierarchy under
	// each memory configuration. Replay points carry no workload,
	// size, thread or node axis — the stored stream is the workload
	// and defines its own footprint.
	FidelityReplay = "replay"
)

// traceStreamVersion versions the synthetic access streams of
// FidelityTrace points and is part of their keys only, so outcomes of
// an earlier stream derivation persisted in a data directory are never
// served, nor mixed with current ones. Version 2 seeds a stream from
// the point with its config cleared, so every memory configuration of
// one (SKU, workload, size) replays the identical stream.
const traceStreamVersion = 2

// normalizeFidelity maps the empty string to FidelityModel and
// rejects unknown levels.
func normalizeFidelity(f string) (string, error) {
	switch f {
	case "", FidelityModel:
		return FidelityModel, nil
	case FidelityTrace:
		return FidelityTrace, nil
	case FidelityReplay:
		return FidelityReplay, nil
	case FidelityAdvise:
		return FidelityAdvise, nil
	case FidelityCluster:
		return FidelityCluster, nil
	}
	return "", fmt.Errorf("campaign: unknown fidelity %q (model|trace|replay|advise|cluster)", f)
}

// Grid is a geometric problem-size axis: Points sizes spaced evenly in
// log-space from From to To inclusive. It is the declarative
// alternative to listing Sizes explicitly.
type Grid struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Points int    `json:"points"`
}

// Spec is a declarative sweep: the cross product of every axis. Sizes
// and SizeGrid may be combined; both feed the same axis. Experiments
// optionally names paper experiments (harness IDs, or "all") to run
// alongside the grid, so the full reproduction is servable as a
// campaign.
type Spec struct {
	Name      string   `json:"name,omitempty"`
	SKU       string   `json:"sku,omitempty"`
	Fidelity  string   `json:"fidelity,omitempty"` // model (default) | trace | replay | advise | cluster
	Workloads []string `json:"workloads,omitempty"`
	// Traces is the stored-trace axis of replay-fidelity sweeps: each
	// entry is a tracestore content address, replayed under every
	// configuration in Configs. Only valid with Fidelity "replay".
	Traces   []string `json:"traces,omitempty"`
	Configs  []string `json:"configs,omitempty"`
	Sizes    []string `json:"sizes,omitempty"`
	SizeGrid *Grid    `json:"size_grid,omitempty"`
	Threads  []int    `json:"threads,omitempty"`
	// Nodes is the node-count axis of cluster-fidelity sweeps: each
	// point decomposes the (global) problem size over that many KNL
	// nodes. Only valid with Fidelity "cluster"; empty defaults to
	// DefaultNodeCounts.
	Nodes       []int    `json:"nodes,omitempty"`
	Experiments []string `json:"experiments,omitempty"`
}

// Point is one fully-resolved simulation request: the unit of
// execution, caching and deduplication. Two textually different
// requests ("8GB" vs "8192MB", "hbm" vs "MCDRAM") resolve to the same
// Point and therefore the same Key.
type Point struct {
	Workload string
	Config   engine.MemoryConfig
	Size     units.Bytes
	Threads  int
	SKU      string
	Fidelity string // FidelityModel, FidelityTrace, FidelityAdvise or FidelityCluster
	// Nodes is the cluster node count for FidelityCluster points (Size
	// is then the global problem decomposed across them); 0 for every
	// single-node fidelity.
	Nodes int
	// TraceID is the stored trace's content address for FidelityReplay
	// points; empty for every other fidelity (Workload and Size are
	// then empty/zero — the stored stream defines both).
	TraceID string
}

// Key returns the content address of the point: a SHA-256 over its
// canonical resolved form (a keys.Builder preimage — length-prefixed
// strings, bit-pattern floats). Equal points — however they were
// spelled — hash equal, which is what makes repeated sweep points
// free; distinct points can never collide, because the encoding is
// injective.
func (p Point) Key() string {
	fid := p.Fidelity
	if fid == "" {
		fid = FidelityModel
	}
	b := keys.New("point").
		Str("w", p.Workload).
		Int("k", int64(p.Config.Kind)).
		Float("f", p.Config.HybridFlatFraction).
		Int("b", int64(p.Size)).
		Int("t", int64(p.Threads)).
		Str("sku", p.SKU).
		Str("fid", fid).
		Int("n", int64(p.Nodes)).
		Str("tr", p.TraceID)
	if fid == FidelityTrace {
		b.Int("sv", traceStreamVersion)
	}
	return b.Sum()
}

// String renders the point for logs and progress lines. Cluster
// points omit the config segment: their config axis is collapsed (the
// model picks the best per-node configuration itself), so printing
// the zero config's "DRAM" label would misreport what runs.
func (p Point) String() string {
	if p.TraceID != "" {
		return fmt.Sprintf("trace %s/%v", ShortTraceID(p.TraceID), p.Config)
	}
	if p.Nodes > 0 {
		return fmt.Sprintf("%s/%v/t%d/n%d", p.Workload, p.Size, p.Threads, p.Nodes)
	}
	return fmt.Sprintf("%s/%v/%v/t%d", p.Workload, p.Config, p.Size, p.Threads)
}

// ShortTraceID abbreviates a trace content address for labels.
func ShortTraceID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// expandGrid resolves the geometric size axis.
func (g Grid) expand() ([]units.Bytes, error) {
	if g.Points < 2 {
		return nil, fmt.Errorf("campaign: size grid needs >= 2 points, have %d", g.Points)
	}
	from, err := units.ParseBytes(g.From)
	if err != nil {
		return nil, fmt.Errorf("campaign: size grid from: %w", err)
	}
	to, err := units.ParseBytes(g.To)
	if err != nil {
		return nil, fmt.Errorf("campaign: size grid to: %w", err)
	}
	if from <= 0 || to <= 0 || to < from {
		return nil, fmt.Errorf("campaign: size grid [%v, %v] must be positive and ascending", from, to)
	}
	ratio := float64(to) / float64(from)
	out := make([]units.Bytes, g.Points)
	for i := 0; i < g.Points; i++ {
		out[i] = units.Bytes(float64(from) * math.Pow(ratio, float64(i)/float64(g.Points-1)))
	}
	return out, nil
}

// Expand validates the spec and resolves it into the deduplicated
// point set, in deterministic (workload, config, size, threads) grid
// order. The second return is the raw cross-product count before
// deduplication, so callers can report how much the content addressing
// saved.
func (s Spec) Expand() (points []Point, raw int, err error) {
	sku := s.SKU
	if sku == "" {
		sku = DefaultSKU
	}
	fidelity, err := normalizeFidelity(s.Fidelity)
	if err != nil {
		return nil, 0, err
	}
	if fidelity == FidelityReplay {
		return s.expandReplay(sku)
	}
	if len(s.Traces) != 0 {
		return nil, 0, fmt.Errorf("campaign: the traces axis requires fidelity %q (have %q)", FidelityReplay, fidelity)
	}
	if len(s.Workloads) == 0 && len(s.Experiments) == 0 {
		return nil, 0, fmt.Errorf("campaign: spec names no workloads and no experiments")
	}
	if len(s.Workloads) == 0 {
		return nil, 0, nil // experiment-only campaign
	}
	if len(s.Configs) == 0 && fidelity != FidelityAdvise && fidelity != FidelityCluster {
		return nil, 0, fmt.Errorf("campaign: spec names workloads but no memory configurations")
	}
	var sizes []units.Bytes
	for _, sz := range s.Sizes {
		b, err := units.ParseBytes(sz)
		if err != nil {
			return nil, 0, fmt.Errorf("campaign: %w", err)
		}
		if b <= 0 {
			return nil, 0, fmt.Errorf("campaign: size %q must be positive", sz)
		}
		sizes = append(sizes, b)
	}
	if s.SizeGrid != nil {
		grid, err := s.SizeGrid.expand()
		if err != nil {
			return nil, 0, err
		}
		sizes = append(sizes, grid...)
	}
	if len(sizes) == 0 {
		return nil, 0, fmt.Errorf("campaign: spec has no problem sizes (set sizes or size_grid)")
	}
	threads := s.Threads
	if len(threads) == 0 {
		threads = []int{64}
	}
	for _, t := range threads {
		if t <= 0 {
			return nil, 0, fmt.Errorf("campaign: thread count %d must be positive", t)
		}
	}
	nodes := s.Nodes
	if fidelity != FidelityCluster {
		if len(nodes) != 0 {
			return nil, 0, fmt.Errorf("campaign: the nodes axis requires fidelity %q (have %q)", FidelityCluster, fidelity)
		}
		nodes = []int{0} // single-node fidelities carry no node axis
	} else {
		if len(nodes) == 0 {
			nodes = DefaultNodeCounts()
		}
		for _, n := range nodes {
			if n < 1 {
				return nil, 0, fmt.Errorf("campaign: node count %d must be >= 1", n)
			}
		}
	}
	var cfgs []engine.MemoryConfig
	for _, raw := range s.Configs {
		cfg, err := engine.ParseConfig(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("campaign: %w", err)
		}
		cfgs = append(cfgs, cfg)
	}
	if (fidelity == FidelityAdvise || fidelity == FidelityCluster) && len(cfgs) == 0 {
		// The advisor sweeps every memory mode itself, and a cluster
		// point picks the best per-node configuration automatically;
		// the config axis is implicit for both.
		cfgs = []engine.MemoryConfig{{}}
	}

	seen := make(map[string]bool)
	for _, w := range s.Workloads {
		w = strings.TrimSpace(w)
		if w == "" {
			return nil, 0, fmt.Errorf("campaign: empty workload name")
		}
		for _, cfg := range cfgs {
			for _, size := range sizes {
				for _, th := range threads {
					for _, n := range nodes {
						raw++
						if fidelity == FidelityTrace {
							// Trace replay is a single stream; the thread
							// axis collapses (dedup below removes the
							// redundant grid points).
							th = 0
						}
						if fidelity == FidelityAdvise || fidelity == FidelityCluster {
							// The advisor evaluates every memory mode,
							// and a cluster point picks the best per-node
							// configuration itself; the config axis
							// collapses the same way.
							cfg = engine.MemoryConfig{}
						}
						p := Point{Workload: w, Config: cfg, Size: size, Threads: th, SKU: sku, Fidelity: fidelity, Nodes: n}
						k := p.Key()
						if seen[k] {
							continue
						}
						seen[k] = true
						points = append(points, p)
					}
				}
			}
		}
	}
	return points, raw, nil
}

// expandReplay resolves a replay-fidelity spec: the cross product of
// stored traces x memory configurations. The workload, size, thread
// and node axes do not apply — the stored stream is the workload and
// defines its own footprint — so naming them is a spec error rather
// than a silently ignored field.
func (s Spec) expandReplay(sku string) (points []Point, raw int, err error) {
	if len(s.Traces) == 0 {
		return nil, 0, fmt.Errorf("campaign: replay spec names no traces")
	}
	if len(s.Workloads) != 0 {
		return nil, 0, fmt.Errorf("campaign: replay fidelity replays stored traces; drop the workloads axis")
	}
	if len(s.Sizes) != 0 || s.SizeGrid != nil {
		return nil, 0, fmt.Errorf("campaign: replay points take their footprint from the stored trace; drop the sizes axis")
	}
	if len(s.Nodes) != 0 {
		return nil, 0, fmt.Errorf("campaign: the nodes axis requires fidelity %q (have %q)", FidelityCluster, FidelityReplay)
	}
	if len(s.Threads) != 0 {
		return nil, 0, fmt.Errorf("campaign: replay is a single access stream; drop the threads axis")
	}
	if len(s.Configs) == 0 {
		return nil, 0, fmt.Errorf("campaign: replay spec names no memory configurations")
	}
	var cfgs []engine.MemoryConfig
	for _, rawCfg := range s.Configs {
		cfg, err := engine.ParseConfig(rawCfg)
		if err != nil {
			return nil, 0, fmt.Errorf("campaign: %w", err)
		}
		cfgs = append(cfgs, cfg)
	}
	seen := make(map[string]bool)
	for _, id := range s.Traces {
		id = strings.TrimSpace(id)
		if id == "" {
			return nil, 0, fmt.Errorf("campaign: empty trace id")
		}
		for _, cfg := range cfgs {
			raw++
			p := Point{TraceID: id, Config: cfg, SKU: sku, Fidelity: FidelityReplay}
			k := p.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
			points = append(points, p)
		}
	}
	return points, raw, nil
}

// CampaignKey content-addresses a whole campaign: the sorted point
// keys plus the experiment list and SKU. Two specs that expand to the
// same work hash equal, so a repeated submission is served from the
// campaign-level cache without touching a single point.
func (s Spec) CampaignKey() (string, error) {
	points, _, err := s.Expand()
	if err != nil {
		return "", err
	}
	pointKeys := make([]string, 0, len(points))
	for _, p := range points {
		pointKeys = append(pointKeys, p.Key())
	}
	sort.Strings(pointKeys)
	exps := append([]string(nil), s.Experiments...)
	sort.Strings(exps)
	sku := s.SKU
	if sku == "" {
		sku = DefaultSKU
	}
	b := keys.New("campaign")
	for _, k := range pointKeys {
		b.Str("p", k)
	}
	for _, e := range exps {
		b.Str("exp", e)
	}
	b.Str("sku", sku)
	return b.Sum(), nil
}
