package graph500

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestGenerateEdgesDeterministic(t *testing.T) {
	a, err := GenerateEdges(8, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := GenerateEdges(8, 16, 42)
	if len(a) != 256*16 {
		t.Fatalf("edge count %d, want %d", len(a), 256*16)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different graphs")
		}
	}
	c, _ := GenerateEdges(8, 16, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestGenerateEdgesErrors(t *testing.T) {
	if _, err := GenerateEdges(0, 16, 1); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := GenerateEdges(40, 16, 1); err == nil {
		t.Error("scale 40 accepted")
	}
	if _, err := GenerateEdges(8, 0, 1); err == nil {
		t.Error("edgefactor 0 accepted")
	}
}

func TestGenerateEdgesInRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		edges, err := GenerateEdges(6, 4, seed)
		if err != nil {
			return false
		}
		for _, e := range edges {
			if e.U < 0 || e.U >= 64 || e.V < 0 || e.V >= 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuildCSR(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 2}, {0, 2}} // one self-loop dropped
	g, err := BuildCSR(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.DirectedEdges() != 6 {
		t.Fatalf("directed edges = %d, want 6", g.DirectedEdges())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 2 || g.Degree(2) != 2 {
		t.Fatalf("degrees %d/%d/%d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
	if _, err := BuildCSR(2, []Edge{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if _, err := BuildCSR(0, nil); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestBFSAndValidate(t *testing.T) {
	edges, err := GenerateEdges(10, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildCSR(1024, edges)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a root with nonzero degree (spec requirement).
	root := int64(0)
	for g.Degree(root) == 0 {
		root++
	}
	parent, traversed, err := g.BFS(root, 8)
	if err != nil {
		t.Fatal(err)
	}
	if traversed <= 0 {
		t.Fatal("no edges traversed")
	}
	if err := g.ValidateBFSTree(root, parent); err != nil {
		t.Fatalf("BFS tree invalid: %v", err)
	}
	// Reached set must match actual connectivity: every neighbour of
	// a reached vertex is reached.
	for v := int64(0); v < g.N; v++ {
		if parent[v] == -1 {
			continue
		}
		for k := g.XOff[v]; k < g.XOff[v+1]; k++ {
			if parent[g.Adj[k]] == -1 {
				t.Fatalf("vertex %d reached but neighbour %d not", v, g.Adj[k])
			}
		}
	}
}

func TestBFSErrors(t *testing.T) {
	g, _ := BuildCSR(4, []Edge{{0, 1}})
	if _, _, err := g.BFS(-1, 1); err == nil {
		t.Error("negative root accepted")
	}
	if _, _, err := g.BFS(0, 0); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 2}, {2, 3}}
	g, _ := BuildCSR(4, edges)
	parent, _, err := g.BFS(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: non-tree edge as parent.
	bad := append([]int64(nil), parent...)
	bad[3] = 0 // (0,3) is not an edge
	if err := g.ValidateBFSTree(0, bad); err == nil {
		t.Error("fake parent edge accepted")
	}
	// Corrupt: cycle.
	bad2 := append([]int64(nil), parent...)
	bad2[1] = 2
	bad2[2] = 1
	if err := g.ValidateBFSTree(0, bad2); err == nil {
		t.Error("parent cycle accepted")
	}
	// Corrupt: root reparented.
	bad3 := append([]int64(nil), parent...)
	bad3[0] = 1
	if err := g.ValidateBFSTree(0, bad3); err == nil {
		t.Error("reparented root accepted")
	}
}

func TestBFSThreadInvariantReachability(t *testing.T) {
	edges, _ := GenerateEdges(9, 8, 11)
	g, _ := BuildCSR(512, edges)
	root := int64(0)
	for g.Degree(root) == 0 {
		root++
	}
	p1, _, err := g.BFS(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	p8, _, err := g.BFS(root, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range p1 {
		if (p1[v] == -1) != (p8[v] == -1) {
			t.Fatalf("reachability differs at vertex %d", v)
		}
	}
}

func TestScaleForMatchesPaperSizes(t *testing.T) {
	// 1.1 GB should land on scale 22 (the reference CSR footprint).
	s, v := ScaleFor(units.GB(1.1))
	if s != 22 || v != 1<<22 {
		t.Errorf("1.1 GB => scale %d, want 22", s)
	}
	if s, _ := ScaleFor(units.GB(35)); s != 27 {
		t.Errorf("35 GB => scale %d, want 27", s)
	}
	if b := units.Bytes((int64(1) << 22) * bytesPerVertex); b.GiBf() < 1.0 || b.GiBf() > 1.2 {
		t.Errorf("scale 22 footprint = %v", b)
	}
}

func TestModelFig4dShape(t *testing.T) {
	m := engine.Default()
	mdl := Model{}

	// DRAM best at every size; TEPS in the paper's 1-2.5e8 band.
	for _, s := range mdl.PaperSizes() {
		d, err := mdl.Predict(m, engine.DRAM, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if d < 0.8e8 || d > 3e8 {
			t.Errorf("size %v: DRAM TEPS = %.3g, want 1-2.5e8", s, d)
		}
		c, err := mdl.Predict(m, engine.Cache, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if c > d {
			t.Errorf("size %v: cache (%.3g) above DRAM (%.3g)", s, c, d)
		}
		if h, err := mdl.Predict(m, engine.HBM, s, 64); err == nil && h > d {
			t.Errorf("size %v: HBM (%.3g) above DRAM (%.3g)", s, h, d)
		}
	}
	// The 35 GB gap: DRAM ~1.3x over cache mode.
	d35, _ := mdl.Predict(m, engine.DRAM, units.GB(35), 64)
	c35, _ := mdl.Predict(m, engine.Cache, units.GB(35), 64)
	if r := d35 / c35; r < 1.15 || r > 1.5 {
		t.Errorf("DRAM/cache at 35 GB = %.2f, want ~1.3", r)
	}
	// TEPS declines with scale (latency growth).
	small, _ := mdl.Predict(m, engine.DRAM, units.GB(1.1), 64)
	if small <= d35 {
		t.Error("TEPS should decline with graph size")
	}
	// No HBM bar at 17.5 and 35 GB.
	if _, err := mdl.Predict(m, engine.HBM, units.GB(35), 64); err == nil {
		t.Error("35 GB should not fit HBM")
	}
}

func TestModelFig6cThreads(t *testing.T) {
	m := engine.Default()
	mdl := Model{}
	size := mdl.Fig6Size()

	// Peak at 128 threads for every configuration; ~1.5x over 64.
	for _, cfg := range engine.PaperConfigs() {
		v64, err := mdl.Predict(m, cfg, size, 64)
		if err != nil {
			t.Fatal(err)
		}
		v128, _ := mdl.Predict(m, cfg, size, 128)
		v192, _ := mdl.Predict(m, cfg, size, 192)
		v256, _ := mdl.Predict(m, cfg, size, 256)
		if v128 <= v64 || v128 <= v192 || v128 <= v256 {
			t.Errorf("%v: peak not at 128 threads (%.3g %.3g %.3g %.3g)", cfg, v64, v128, v192, v256)
		}
		if r := v128 / v64; r < 1.3 || r > 1.8 {
			t.Errorf("%v: 128/64 = %.2f, want ~1.5", cfg, r)
		}
	}
	// DRAM remains the best configuration at its peak.
	d128, _ := mdl.Predict(m, engine.DRAM, size, 128)
	h128, _ := mdl.Predict(m, engine.HBM, size, 128)
	c128, _ := mdl.Predict(m, engine.Cache, size, 128)
	if d128 < h128 || d128 < c128 {
		t.Errorf("DRAM should stay best at 128 threads: %.3g vs %.3g/%.3g", d128, h128, c128)
	}
}

func TestModelInfo(t *testing.T) {
	info := Model{}.Info()
	if info.Name != "Graph500" || info.Class != workload.ClassDataAnalytics ||
		info.Pattern != workload.PatternRandom || info.MaxScale != units.GB(35) {
		t.Errorf("Table I row wrong: %+v", info)
	}
}
