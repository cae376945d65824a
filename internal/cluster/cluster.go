// Package cluster models the multi-node dimension of the paper's
// testbed: "a cluster of 12 KNL-based compute nodes ... connected via
// Cray's proprietary Aries interconnect" (§III-A), and makes the
// §IV-C decomposition argument executable: with enough nodes, the
// optimal setup assigns each node a sub-problem close to the HBM
// capacity.
//
// The model is deliberately simple — bulk-synchronous iterations with
// per-iteration halo exchange and allreduce costs on an Aries-like
// interconnect — because the paper's multi-node content is a sizing
// argument, not a network study.
package cluster

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// Interconnect describes the network between nodes.
type Interconnect struct {
	Name string
	// LatencyNS is the one-way small-message latency.
	LatencyNS float64
	// BandwidthGBs is the per-node injection bandwidth.
	BandwidthGBs float64
}

// Aries returns a Cray Aries-like interconnect (the testbed's).
func Aries() Interconnect {
	return Interconnect{Name: "Cray Aries", LatencyNS: 1300, BandwidthGBs: 10}
}

// Validate checks the interconnect parameters.
func (ic Interconnect) Validate() error {
	if ic.LatencyNS <= 0 || ic.BandwidthGBs <= 0 {
		return fmt.Errorf("cluster: interconnect %q needs positive latency/bandwidth", ic.Name)
	}
	return nil
}

// Cluster is a set of identical KNL nodes.
type Cluster struct {
	Node    *engine.Machine
	Nodes   int
	Network Interconnect
}

// New builds a cluster.
func New(node *engine.Machine, nodes int, network Interconnect) (*Cluster, error) {
	if node == nil {
		return nil, fmt.Errorf("cluster: nil node machine")
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("cluster: node count %d must be positive", nodes)
	}
	if err := network.Validate(); err != nil {
		return nil, err
	}
	return &Cluster{Node: node, Nodes: nodes, Network: network}, nil
}

// Decomposition describes how a global problem splits across nodes.
type Decomposition struct {
	GlobalSize  units.Bytes
	PerNodeSize units.Bytes
	Nodes       int
	// SurfaceFraction is the halo-to-volume ratio of the per-node
	// sub-domain (3D block decomposition: ~6/edge).
	SurfaceFraction float64
}

// Decompose splits a global problem over the cluster's nodes with a
// 3D block decomposition.
func (c *Cluster) Decompose(global units.Bytes) (Decomposition, error) {
	if global <= 0 {
		return Decomposition{}, fmt.Errorf("cluster: global size must be positive")
	}
	per := global / units.Bytes(c.Nodes)
	if per == 0 {
		return Decomposition{}, fmt.Errorf("cluster: %v over %d nodes leaves empty sub-problems", global, c.Nodes)
	}
	// Cubic sub-domain: halo bytes ~ 6 * volume^(2/3) * cell size^(1/3).
	edge := math.Cbrt(float64(per))
	surface := 6 * edge * edge
	return Decomposition{
		GlobalSize:      global,
		PerNodeSize:     per,
		Nodes:           c.Nodes,
		SurfaceFraction: math.Min(1, surface/float64(per)),
	}, nil
}

// IterationResult is the predicted per-iteration cost of a
// bulk-synchronous workload on the cluster.
type IterationResult struct {
	ComputeNS  float64
	HaloNS     float64
	ReduceNS   float64
	TotalNS    float64
	Config     engine.MemoryConfig
	Efficiency float64 // parallel efficiency vs single node with the global problem
}

// Iterate predicts the per-iteration time of a MiniFE-like
// bulk-synchronous workload (one model evaluation per iteration plus
// halo exchange and one allreduce) on this cluster, choosing the best
// per-node memory configuration automatically. The HTTP /v1/cluster
// answer is pinned by test to match an in-process New(...).Iterate
// run exactly.
func (c *Cluster) Iterate(mdl workload.Model, global units.Bytes, threads int) (IterationResult, error) {
	dec, err := c.Decompose(global)
	if err != nil {
		return IterationResult{}, err
	}

	best := IterationResult{TotalNS: math.Inf(1)}
	for _, cfg := range engine.PaperConfigs() {
		rate, err := mdl.Predict(c.Node, cfg, dec.PerNodeSize, threads)
		if err != nil || rate <= 0 {
			continue
		}
		// The model's metric is work/second; per-iteration compute
		// time scales as sub-problem size / rate. Use a normalized
		// proxy: ns per byte of sub-problem per unit metric.
		computeNS := float64(dec.PerNodeSize) / rate * 1e3 // model-relative units
		haloBytes := dec.SurfaceFraction * float64(dec.PerNodeSize) * 0.05
		haloNS := c.Network.LatencyNS*6 + haloBytes/c.Network.BandwidthGBs
		reduceNS := c.Network.LatencyNS * 2 * math.Ceil(math.Log2(float64(c.Nodes)))
		total := computeNS + haloNS + reduceNS
		if total < best.TotalNS {
			best = IterationResult{
				ComputeNS: computeNS, HaloNS: haloNS, ReduceNS: reduceNS,
				TotalNS: total, Config: cfg,
			}
		}
	}
	if math.IsInf(best.TotalNS, 1) {
		return IterationResult{}, fmt.Errorf("cluster: no configuration can run %v per node", dec.PerNodeSize)
	}

	// Parallel efficiency vs the single-node run of the global
	// problem under ITS best configuration.
	single := math.Inf(1)
	for _, cfg := range engine.PaperConfigs() {
		rate, err := mdl.Predict(c.Node, cfg, global, threads)
		if err != nil || rate <= 0 {
			continue
		}
		t := float64(global) / rate * 1e3
		if t < single {
			single = t
		}
	}
	if !math.IsInf(single, 1) {
		ideal := single / float64(c.Nodes)
		best.Efficiency = ideal / best.TotalNS
	}
	return best, nil
}

// SweetSpot returns the smallest node count at which the per-node
// sub-problem (plus a working-set factor) fits the HBM capacity —
// the §IV-C decomposition rule.
func (c *Cluster) SweetSpot(global units.Bytes, workingSetFactor float64) (int, error) {
	if global <= 0 {
		return 0, fmt.Errorf("cluster: global size must be positive")
	}
	if workingSetFactor < 1 {
		workingSetFactor = 1
	}
	hbm := c.Node.Chip.MCDRAM.Capacity
	need := units.Bytes(float64(global) * workingSetFactor)
	nodes := int((need + hbm - 1) / hbm)
	if nodes < 1 {
		nodes = 1
	}
	return nodes, nil
}
