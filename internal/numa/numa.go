// Package numa models the NUMA view the operating system exposes for
// each KNL memory mode, together with numactl-style allocation
// policies.
//
// In flat mode the node has two NUMA domains: node 0 is the 96 GB DDR
// (where the cores are), node 1 is the 16 GB cpu-less MCDRAM. The
// distance matrix is the one the paper prints in Table II (10/31).
// In cache mode only node 0 exists. In hybrid mode node 1 shrinks to
// the flat fraction of MCDRAM.
package numa

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/units"
)

// NodeID identifies a NUMA domain.
type NodeID int

// Node is one NUMA domain.
type Node struct {
	ID       NodeID
	Kind     mem.Kind
	Capacity units.Bytes
	HasCPUs  bool
}

// Topology is the OS view of the memory system.
type Topology struct {
	Nodes    []Node
	Distance [][]int
}

// MemMode mirrors the BIOS MCDRAM configuration options (§II).
type MemMode int

const (
	// FlatMode exposes MCDRAM as a separate NUMA node.
	FlatMode MemMode = iota
	// CacheMode hides MCDRAM behind a hardware-managed direct-mapped
	// memory-side cache; only the DDR node is visible.
	CacheMode
	// HybridMode splits MCDRAM: part cache, part flat node.
	HybridMode
)

// String names the mode as the paper does.
func (m MemMode) String() string {
	switch m {
	case FlatMode:
		return "flat"
	case CacheMode:
		return "cache"
	case HybridMode:
		return "hybrid"
	}
	return fmt.Sprintf("MemMode(%d)", int(m))
}

const (
	// LocalDistance and RemoteDistance reproduce Table II: the ACPI
	// SLIT distances reported by `numactl --hardware` on the testbed.
	LocalDistance  = 10
	RemoteDistance = 31
)

// NewTopology builds the OS topology for the given devices and mode.
// flatFraction is only used in hybrid mode and gives the portion of
// MCDRAM exposed as the flat node (the rest becomes cache).
func NewTopology(ddr, mcdram mem.DeviceSpec, mode MemMode, flatFraction float64) (*Topology, error) {
	if err := ddr.Validate(); err != nil {
		return nil, err
	}
	if err := mcdram.Validate(); err != nil {
		return nil, err
	}
	switch mode {
	case CacheMode:
		return &Topology{
			Nodes:    []Node{{ID: 0, Kind: mem.DDR, Capacity: ddr.Capacity, HasCPUs: true}},
			Distance: [][]int{{LocalDistance}},
		}, nil
	case FlatMode:
		flatFraction = 1.0
	case HybridMode:
		if flatFraction <= 0 || flatFraction >= 1 {
			return nil, fmt.Errorf("numa: hybrid flat fraction %v out of (0,1)", flatFraction)
		}
	default:
		return nil, fmt.Errorf("numa: unknown memory mode %v", mode)
	}
	hbmCap := units.Bytes(float64(mcdram.Capacity) * flatFraction)
	return &Topology{
		Nodes: []Node{
			{ID: 0, Kind: mem.DDR, Capacity: ddr.Capacity, HasCPUs: true},
			{ID: 1, Kind: mem.MCDRAM, Capacity: hbmCap, HasCPUs: false},
		},
		Distance: [][]int{
			{LocalDistance, RemoteDistance},
			{RemoteDistance, LocalDistance},
		},
	}, nil
}

// NodeByID returns the node with the given id.
func (t *Topology) NodeByID(id NodeID) (Node, error) {
	for _, n := range t.Nodes {
		if n.ID == id {
			return n, nil
		}
	}
	return Node{}, fmt.Errorf("numa: no node %d", id)
}

// HardwareString renders the topology in `numactl --hardware` style,
// matching the layout of Table II.
func (t *Topology) HardwareString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "available: %d nodes (", len(t.Nodes))
	for i, n := range t.Nodes {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "%d", n.ID)
	}
	b.WriteString(")\n")
	for _, n := range t.Nodes {
		cpus := ""
		if n.HasCPUs {
			cpus = "0-255"
		}
		fmt.Fprintf(&b, "node %d cpus: %s\n", n.ID, cpus)
		fmt.Fprintf(&b, "node %d size: %d MB (%s)\n", n.ID, int64(n.Capacity)/int64(units.MiB), n.Kind)
	}
	b.WriteString("node distances:\nnode ")
	for _, n := range t.Nodes {
		fmt.Fprintf(&b, "%4d ", n.ID)
	}
	b.WriteString("\n")
	for i, n := range t.Nodes {
		fmt.Fprintf(&b, "%4d:", n.ID)
		for j := range t.Nodes {
			fmt.Fprintf(&b, "%4d ", t.Distance[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// PolicyKind enumerates the numactl placement policies the paper uses.
type PolicyKind int

const (
	// Default allocates from node 0 (first-touch on the CPU node).
	Default PolicyKind = iota
	// Membind forces every allocation onto a node set and fails when
	// the set is exhausted (numactl --membind).
	Membind
	// Preferred tries a node first and falls back to the others
	// (numactl --preferred).
	Preferred
	// Interleave round-robins pages across a node set
	// (numactl --interleave).
	Interleave
)

// String names the policy like numactl flags do.
func (p PolicyKind) String() string {
	switch p {
	case Default:
		return "default"
	case Membind:
		return "membind"
	case Preferred:
		return "preferred"
	case Interleave:
		return "interleave"
	}
	return fmt.Sprintf("PolicyKind(%d)", int(p))
}

// Policy is a placement policy over a node set.
type Policy struct {
	Kind  PolicyKind
	Nodes []NodeID
}

// Bind returns a --membind policy.
func Bind(nodes ...NodeID) Policy { return Policy{Kind: Membind, Nodes: nodes} }

// Prefer returns a --preferred policy.
func Prefer(node NodeID) Policy { return Policy{Kind: Preferred, Nodes: []NodeID{node}} }

// InterleaveAll returns a --interleave policy over the given nodes.
func InterleaveAll(nodes ...NodeID) Policy { return Policy{Kind: Interleave, Nodes: nodes} }

// Validate checks the policy against a topology.
func (p Policy) Validate(t *Topology) error {
	if len(p.Nodes) == 0 {
		return fmt.Errorf("numa: policy %v has empty node set", p.Kind)
	}
	for _, id := range p.Nodes {
		if _, err := t.NodeByID(id); err != nil {
			return fmt.Errorf("numa: policy %v: %v", p.Kind, err)
		}
	}
	return nil
}

// String renders the policy numactl-style, e.g. "membind=1".
func (p Policy) String() string {
	ids := make([]string, len(p.Nodes))
	for i, n := range p.Nodes {
		ids[i] = fmt.Sprintf("%d", n)
	}
	return fmt.Sprintf("%s=%s", p.Kind, strings.Join(ids, ","))
}

// PlacementSequence returns the node order to try for the i-th page of
// an allocation under this policy. Membind and Default return just the
// bound set (no fallback); Preferred returns the preferred node then
// every other topology node; Interleave rotates the set by page index.
func (p Policy) PlacementSequence(t *Topology, pageIndex int64) []NodeID {
	switch p.Kind {
	case Preferred:
		seq := append([]NodeID(nil), p.Nodes...)
		for _, n := range t.Nodes {
			found := false
			for _, s := range seq {
				if s == n.ID {
					found = true
					break
				}
			}
			if !found {
				seq = append(seq, n.ID)
			}
		}
		return seq
	case Interleave:
		k := len(p.Nodes)
		seq := make([]NodeID, 0, k)
		start := int(pageIndex % int64(k))
		for i := 0; i < k; i++ {
			seq = append(seq, p.Nodes[(start+i)%k])
		}
		return seq
	default:
		return append([]NodeID(nil), p.Nodes...)
	}
}
