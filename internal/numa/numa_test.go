package numa

import (
	"strings"
	"testing"

	"repro/internal/knl"
	"repro/internal/units"
)

func topoFlat(t *testing.T) *Topology {
	t.Helper()
	c := knl.KNL7210()
	topo, err := NewTopology(c.DDR, c.MCDRAM, FlatMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestFlatTopologyMatchesTableII(t *testing.T) {
	topo := topoFlat(t)
	if len(topo.Nodes) != 2 {
		t.Fatalf("flat mode should expose 2 nodes, got %d", len(topo.Nodes))
	}
	n0, _ := topo.NodeByID(0)
	n1, _ := topo.NodeByID(1)
	if !n0.HasCPUs || n1.HasCPUs {
		t.Error("CPUs must be on node 0 only (MCDRAM is a cpu-less node)")
	}
	if n0.Capacity != 96*units.GiB || n1.Capacity != 16*units.GiB {
		t.Errorf("capacities %v/%v, want 96/16 GiB", n0.Capacity, n1.Capacity)
	}
	// Table II distances.
	want := [][]int{{10, 31}, {31, 10}}
	for i := range want {
		for j := range want[i] {
			if topo.Distance[i][j] != want[i][j] {
				t.Errorf("distance[%d][%d] = %d, want %d", i, j, topo.Distance[i][j], want[i][j])
			}
		}
	}
}

func TestCacheTopologyMatchesTableII(t *testing.T) {
	c := knl.KNL7210()
	topo, err := NewTopology(c.DDR, c.MCDRAM, CacheMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Nodes) != 1 {
		t.Fatalf("cache mode should expose 1 node, got %d", len(topo.Nodes))
	}
	if topo.Distance[0][0] != 10 {
		t.Errorf("self distance = %d, want 10", topo.Distance[0][0])
	}
}

func TestHybridTopology(t *testing.T) {
	c := knl.KNL7210()
	topo, err := NewTopology(c.DDR, c.MCDRAM, HybridMode, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n1, _ := topo.NodeByID(1)
	if n1.Capacity != 8*units.GiB {
		t.Errorf("hybrid 50%% flat node = %v, want 8 GiB", n1.Capacity)
	}
	if _, err := NewTopology(c.DDR, c.MCDRAM, HybridMode, 0); err == nil {
		t.Error("hybrid fraction 0 accepted")
	}
	if _, err := NewTopology(c.DDR, c.MCDRAM, HybridMode, 1); err == nil {
		t.Error("hybrid fraction 1 accepted")
	}
	if _, err := NewTopology(c.DDR, c.MCDRAM, MemMode(99), 0); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestMemModeString(t *testing.T) {
	if FlatMode.String() != "flat" || CacheMode.String() != "cache" || HybridMode.String() != "hybrid" {
		t.Fatal("mode names wrong")
	}
	if MemMode(5).String() != "MemMode(5)" {
		t.Fatal("unknown mode formatting")
	}
}

func TestHardwareString(t *testing.T) {
	topo := topoFlat(t)
	s := topo.HardwareString()
	for _, want := range []string{
		"available: 2 nodes (0,1)",
		"node 0 size: 98304 MB (DRAM)",
		"node 1 size: 16384 MB (MCDRAM)",
		"node distances:",
		"  10   31",
		"  31   10",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("HardwareString missing %q:\n%s", want, s)
		}
	}
}

func TestNodeByIDMissing(t *testing.T) {
	topo := topoFlat(t)
	if _, err := topo.NodeByID(7); err == nil {
		t.Error("missing node accepted")
	}
}

func TestPolicyValidate(t *testing.T) {
	topo := topoFlat(t)
	if err := Bind(0).Validate(topo); err != nil {
		t.Errorf("membind=0 invalid: %v", err)
	}
	if err := Bind(1).Validate(topo); err != nil {
		t.Errorf("membind=1 invalid: %v", err)
	}
	if err := Bind(3).Validate(topo); err == nil {
		t.Error("membind to missing node accepted")
	}
	if err := (Policy{Kind: Membind}).Validate(topo); err == nil {
		t.Error("empty node set accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if got := Bind(1).String(); got != "membind=1" {
		t.Errorf("Bind(1) = %q", got)
	}
	if got := InterleaveAll(0, 1).String(); got != "interleave=0,1" {
		t.Errorf("InterleaveAll = %q", got)
	}
	if got := Prefer(1).String(); got != "preferred=1" {
		t.Errorf("Prefer = %q", got)
	}
	if got := DefaultPolicy().String(); got != "default=0" {
		t.Errorf("DefaultPolicy = %q", got)
	}
	if PolicyKind(9).String() != "PolicyKind(9)" {
		t.Error("unknown policy formatting")
	}
}

func TestPlacementSequences(t *testing.T) {
	topo := topoFlat(t)

	// Membind never falls back.
	seq := Bind(1).PlacementSequence(topo, 0)
	if len(seq) != 1 || seq[0] != 1 {
		t.Errorf("membind sequence = %v", seq)
	}

	// Preferred tries its node then the rest.
	seq = Prefer(1).PlacementSequence(topo, 0)
	if len(seq) != 2 || seq[0] != 1 || seq[1] != 0 {
		t.Errorf("preferred sequence = %v", seq)
	}

	// Interleave rotates with the page index.
	p := InterleaveAll(0, 1)
	s0 := p.PlacementSequence(topo, 0)
	s1 := p.PlacementSequence(topo, 1)
	s2 := p.PlacementSequence(topo, 2)
	if s0[0] != 0 || s1[0] != 1 || s2[0] != 0 {
		t.Errorf("interleave rotation wrong: %v %v %v", s0, s1, s2)
	}
}

// DefaultPolicy allocates from node 0.
func DefaultPolicy() Policy { return Policy{Kind: Default, Nodes: []NodeID{0}} }
