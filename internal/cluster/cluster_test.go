package cluster

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workloads/minife"
)

func testCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(engine.Default(), nodes, Aries())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 4, Aries()); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := New(engine.Default(), 0, Aries()); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(engine.Default(), 4, Interconnect{}); err == nil {
		t.Error("invalid interconnect accepted")
	}
	if Aries().Name != "Cray Aries" {
		t.Error("testbed interconnect name")
	}
}

func TestDecompose(t *testing.T) {
	c := testCluster(t, 12)
	dec, err := c.Decompose(units.GB(120))
	if err != nil {
		t.Fatal(err)
	}
	if dec.PerNodeSize != units.GB(10) {
		t.Errorf("per-node = %v, want 10 GB", dec.PerNodeSize)
	}
	if dec.SurfaceFraction <= 0 || dec.SurfaceFraction >= 1 {
		t.Errorf("surface fraction = %v", dec.SurfaceFraction)
	}
	// Smaller sub-domains have relatively more surface.
	c2 := testCluster(t, 96)
	dec2, _ := c2.Decompose(units.GB(120))
	if dec2.SurfaceFraction <= dec.SurfaceFraction {
		t.Error("surface-to-volume should grow as sub-domains shrink")
	}
	if _, err := c.Decompose(0); err == nil {
		t.Error("zero global size accepted")
	}
}

func TestSweetSpotMatchesPaperRule(t *testing.T) {
	c := testCluster(t, 12)
	// 120 GB problem, 1.1x working-set factor: need ceil(132/16) = 9.
	n, err := c.SweetSpot(units.GB(120), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("sweet spot = %d nodes, want 9", n)
	}
	// A problem fitting one node's HBM needs one node.
	if n, _ := c.SweetSpot(units.GB(10), 1); n != 1 {
		t.Errorf("small problem sweet spot = %d", n)
	}
	if _, err := c.SweetSpot(0, 1); err == nil {
		t.Error("zero size accepted")
	}
}

func TestPredictIterationsPrefersHBMWhenFits(t *testing.T) {
	mdl := minife.Model{}
	// 12 nodes x 10 GB/node: fits HBM; the chosen config must be HBM.
	c := testCluster(t, 12)
	r, err := c.Iterate(mdl, units.GB(120), 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Kind != engine.BindHBM {
		t.Errorf("12 nodes: config = %v, want HBM", r.Config)
	}
	// 2 nodes x 60 GB/node: cannot be HBM.
	c2 := testCluster(t, 2)
	r2, err := c2.Iterate(mdl, units.GB(120), 64)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Config.Kind == engine.BindHBM {
		t.Error("60 GB per node cannot bind to HBM")
	}
	// The HBM decomposition runs faster per iteration.
	if r.TotalNS >= r2.TotalNS {
		t.Errorf("12-node iteration (%v ns) should beat 2-node (%v ns)", r.TotalNS, r2.TotalNS)
	}
}

func TestPredictIterationsEfficiency(t *testing.T) {
	mdl := minife.Model{}
	c := testCluster(t, 4)
	r, err := c.Iterate(mdl, units.GB(40), 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Efficiency <= 0 {
		t.Fatalf("efficiency = %v", r.Efficiency)
	}
	// Network costs are accounted.
	if r.HaloNS <= 0 || r.ReduceNS <= 0 {
		t.Error("network terms missing")
	}
	if math.Abs(r.TotalNS-(r.ComputeNS+r.HaloNS+r.ReduceNS)) > 1 {
		t.Error("total is not the sum of parts")
	}
}

func TestStrongScalingShowsHBMSweetSpot(t *testing.T) {
	mdl := minife.Model{}
	results := map[int]IterationResult{}
	for _, n := range []int{2, 4, 8, 12, 16} {
		if r, err := testCluster(t, n).Iterate(mdl, units.GB(120), 64); err == nil {
			results[n] = r
		}
	}
	if len(results) < 4 {
		t.Fatalf("only %d node counts ran", len(results))
	}
	// Once sub-problems fit HBM (>= 9 nodes with vectors), iteration
	// time keeps dropping and the config switches to HBM.
	if r, ok := results[12]; !ok || r.Config.Kind != engine.BindHBM {
		t.Errorf("12-node config = %+v, want HBM", results[12])
	}
	if r2, r12 := results[2], results[12]; r2.TotalNS <= r12.TotalNS {
		t.Error("scaling should reduce iteration time")
	}
}
