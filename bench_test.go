package repro

// One benchmark per table and figure of the paper, plus the ablation
// benches DESIGN.md calls out and functional-kernel benches. Each
// figure bench regenerates its panel through the harness and reports
// the panel's headline number via b.ReportMetric, so
// `go test -bench=. -benchmem` reprints the paper's evaluation.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/noc"
	"repro/internal/placement"
	"repro/internal/tracesim"
	"repro/internal/units"
	"repro/internal/workloads/dgemm"
	"repro/internal/workloads/graph500"
	"repro/internal/workloads/gups"
	"repro/internal/workloads/latbench"
	"repro/internal/workloads/minife"
	"repro/internal/workloads/stream"
	"repro/internal/workloads/xsbench"
)

func newSys(b *testing.B) *core.System {
	b.Helper()
	sys, err := core.NewSystem()
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func runExperiment(b *testing.B, id string, metrics func(*harness.Table, *testing.B)) {
	sys := newSys(b)
	exp, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *harness.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err = exp.Run(sys)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if metrics != nil {
		metrics(tbl, b)
	}
}

func report(b *testing.B, tbl *harness.Table, x float64, col, unit string) {
	v, err := tbl.ValueAt(x, col)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, unit)
}

// --- Tables ---------------------------------------------------------

func BenchmarkTable1Applications(b *testing.B) {
	runExperiment(b, "table1", func(tbl *harness.Table, b *testing.B) {
		b.ReportMetric(float64(len(tbl.Notes)), "applications")
	})
}

func BenchmarkTable2NUMADistances(b *testing.B) {
	runExperiment(b, "table2", nil)
}

func BenchmarkLatencyProbe(b *testing.B) {
	runExperiment(b, "latency", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 1, "DRAM", "ns-DRAM")
		report(b, tbl, 1, "HBM", "ns-HBM")
	})
}

// --- Figures --------------------------------------------------------

func BenchmarkFig2StreamTriad(b *testing.B) {
	runExperiment(b, "fig2", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 8, "DRAM", "GB/s-DRAM")
		report(b, tbl, 8, "HBM", "GB/s-HBM")
		report(b, tbl, 8, "Cache Mode", "GB/s-cache")
	})
}

func BenchmarkFig3DualRandomLatency(b *testing.B) {
	runExperiment(b, "fig3", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 16, "DRAM", "ns-DRAM-16MiB")
		report(b, tbl, 16, "HBM", "ns-HBM-16MiB")
		report(b, tbl, 16, "Gap (%)", "gap-%")
	})
}

func BenchmarkFig4aDGEMM(b *testing.B) {
	runExperiment(b, "fig4a", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 6, "HBM", "GFLOPS-HBM")
		report(b, tbl, 6, "HBM/DRAM", "speedup-x")
	})
}

func BenchmarkFig4bMiniFE(b *testing.B) {
	runExperiment(b, "fig4b", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 7.2, "HBM", "MFLOPS-HBM")
		report(b, tbl, 7.2, "HBM/DRAM", "speedup-x")
		report(b, tbl, 28.8, "Cache/DRAM", "cache-speedup-28.8GB-x")
	})
}

func BenchmarkFig4cGUPS(b *testing.B) {
	runExperiment(b, "fig4c", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 8, "DRAM", "GUPS-DRAM")
		report(b, tbl, 8, "HBM/DRAM", "hbm-ratio-x")
	})
}

func BenchmarkFig4dGraph500(b *testing.B) {
	runExperiment(b, "fig4d", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 1.1, "DRAM", "TEPS-DRAM-1.1GB")
		report(b, tbl, 35, "Cache/DRAM", "cache-ratio-35GB-x")
	})
}

func BenchmarkFig4eXSBench(b *testing.B) {
	runExperiment(b, "fig4e", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 5.6, "DRAM", "lookups/s-DRAM")
		report(b, tbl, 5.6, "HBM/DRAM", "hbm-ratio-x")
	})
}

func BenchmarkFig5StreamHT(b *testing.B) {
	runExperiment(b, "fig5", func(tbl *harness.Table, b *testing.B) {
		h1, err := tbl.ValueAt(8, "HBM ht=1")
		if err != nil {
			b.Fatal(err)
		}
		h2, err := tbl.ValueAt(8, "HBM ht=2")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(h2, "GB/s-HBM-ht2")
		b.ReportMetric(h2/h1, "ht2/ht1-x")
	})
}

func BenchmarkFig6aDGEMMThreads(b *testing.B) {
	runExperiment(b, "fig6a", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 192, "HBM spdup", "speedup-192thr-x")
	})
}

func BenchmarkFig6bMiniFEThreads(b *testing.B) {
	runExperiment(b, "fig6b", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 192, "HBM spdup", "speedup-192thr-x")
	})
}

func BenchmarkFig6cGraph500Threads(b *testing.B) {
	runExperiment(b, "fig6c", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 128, "DRAM spdup", "speedup-128thr-x")
	})
}

func BenchmarkFig6dXSBenchThreads(b *testing.B) {
	runExperiment(b, "fig6d", func(tbl *harness.Table, b *testing.B) {
		report(b, tbl, 256, "HBM spdup", "speedup-256thr-x")
	})
}

// --- Ablations (DESIGN.md §3) ----------------------------------------

// BenchmarkAblationCacheAssoc compares the direct-mapped MCDRAM cache
// against a hypothetical fully-associative one: the direct mapping is
// what produces the Fig. 2 cliff.
func BenchmarkAblationCacheAssoc(b *testing.B) {
	ws := 12 * units.GiB
	capacity := 16 * units.GiB
	var direct, assoc float64
	for i := 0; i < b.N; i++ {
		direct = cache.DirectMappedConflictHitRatio(ws, capacity)
		assoc = cache.SetAssocStreamHitRatio(ws, capacity)
	}
	b.ReportMetric(direct, "hit-direct")
	b.ReportMetric(assoc, "hit-assoc")
	b.ReportMetric(assoc-direct, "assoc-advantage")
}

// BenchmarkAblationPrefetch quantifies the prefetcher's contribution
// by replaying a stream through the trace simulator with and without
// it.
func BenchmarkAblationPrefetch(b *testing.B) {
	run := func(pf bool) float64 {
		cfg := tracesim.DefaultConfig(0)
		cfg.Prefetcher = pf
		sim, err := tracesim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		g, err := tracesim.NewSequential(0, 4<<20, 64, cache.Read)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(g, 1)
		if err != nil {
			b.Fatal(err)
		}
		return res.AvgLatencyNS()
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(true)
		without = run(false)
	}
	b.ReportMetric(with, "ns-with-prefetch")
	b.ReportMetric(without, "ns-without")
	b.ReportMetric(without/with, "prefetch-gain-x")
}

// BenchmarkAblationMLP sweeps the per-thread memory-level parallelism
// of a random workload: the knob behind the paper's hyper-threading
// story.
func BenchmarkAblationMLP(b *testing.B) {
	sys := newSys(b)
	var rates [4]float64
	mlps := []float64{1, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		for j, mlp := range mlps {
			r, err := sys.Machine.RandomAccessRate(engine.HBM, units.GB(8), 64, mlp)
			if err != nil {
				b.Fatal(err)
			}
			rates[j] = r
		}
	}
	for j, mlp := range mlps {
		b.ReportMetric(rates[j], "acc/ns-mlp"+string(rune('0'+int(mlp))))
	}
}

// BenchmarkAblationHybridMode sweeps the hybrid-mode MCDRAM partition
// (the BIOS 25/50/75% options, §II).
func BenchmarkAblationHybridMode(b *testing.B) {
	sys := newSys(b)
	fracs := []float64{0.25, 0.5, 0.75}
	var bws [3]float64
	for i := 0; i < b.N; i++ {
		for j, f := range fracs {
			cfg := engine.MemoryConfig{Kind: engine.Hybrid, HybridFlatFraction: f}
			bw, err := sys.Machine.SeqBandwidth(cfg, units.GB(10), 64)
			if err != nil {
				b.Fatal(err)
			}
			bws[j] = bw.GBpsf()
		}
	}
	b.ReportMetric(bws[0], "GB/s-25%flat")
	b.ReportMetric(bws[1], "GB/s-50%flat")
	b.ReportMetric(bws[2], "GB/s-75%flat")
}

// BenchmarkAblationInterleave measures the §IV-C capacity-augmentation
// configuration against the pure bindings.
func BenchmarkAblationInterleave(b *testing.B) {
	sys := newSys(b)
	var il, dram float64
	for i := 0; i < b.N; i++ {
		bw, err := sys.Machine.SeqBandwidth(engine.MemoryConfig{Kind: engine.InterleaveFlat}, units.GB(8), 64)
		if err != nil {
			b.Fatal(err)
		}
		il = bw.GBpsf()
		dbw, err := sys.Machine.SeqBandwidth(engine.DRAM, units.GB(8), 64)
		if err != nil {
			b.Fatal(err)
		}
		dram = dbw.GBpsf()
	}
	b.ReportMetric(il, "GB/s-interleave")
	b.ReportMetric(il/dram, "vs-DRAM-x")
}

// BenchmarkAblationClusterMode compares the mesh cluster modes
// (quadrant is the testbed's BIOS setting; §II-III).
func BenchmarkAblationClusterMode(b *testing.B) {
	sys := newSys(b)
	var quadrant, a2a float64
	for i := 0; i < b.N; i++ {
		quadrant = sys.Machine.MeshMissLatencyNS()
		alt, err := sys.Machine.WithClusterMode(noc.AllToAll)
		if err != nil {
			b.Fatal(err)
		}
		a2a = alt.MeshMissLatencyNS()
	}
	b.ReportMetric(quadrant, "ns-mesh-quadrant")
	b.ReportMetric(a2a, "ns-mesh-alltoall")
}

// BenchmarkPlacementOptimizer exercises the §VI future-work feature:
// the per-structure placement search.
func BenchmarkPlacementOptimizer(b *testing.B) {
	opt := &placement.Optimizer{Machine: engine.Default(), Threads: 64}
	structs := []placement.Structure{
		{Name: "matrix", Footprint: units.GB(10), SeqBytes: 100e9},
		{Name: "vectors", Footprint: units.GB(2), SeqBytes: 40e9},
		{Name: "table", Footprint: units.GB(6), RandomAccesses: 1e9},
		{Name: "io", Footprint: units.GB(20), SeqBytes: 1e9},
	}
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := opt.Optimize(structs)
		if err != nil {
			b.Fatal(err)
		}
		speedup = plan.SpeedupVsDRAM
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkClusterStrongScaling exercises the §IV-C multi-node sizing
// model.
func BenchmarkClusterStrongScaling(b *testing.B) {
	mdl := minife.Model{}
	var sweet float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := cluster.StrongScaling(engine.Default(), cluster.Aries(),
			mdl, units.GB(120), 64, []int{2, 4, 8, 12, 16})
		if err != nil {
			b.Fatal(err)
		}
		for n, r := range results {
			if r.Config.Kind == engine.BindHBM {
				if sweet == 0 || float64(n) < sweet {
					sweet = float64(n)
				}
			}
		}
	}
	b.ReportMetric(sweet, "hbm-sweet-spot-nodes")
}

// BenchmarkTraceReplay replays the same two 40 MiB streams (sequential
// and uniform random, 655,360 accesses each) through the cache-mode
// hierarchy with a single-lane simulator. lanes=3 replays the same
// streams once through one Simulator carrying flat DDR, flat MCDRAM
// and cache-mode memory lanes, the shape of a trace-campaign group.
func BenchmarkTraceReplay(b *testing.B) {
	const footprint = 40 << 20
	cfg := tracesim.DefaultConfig(8 << 20)
	dram, hbm := tracesim.DefaultConfig(0), tracesim.DefaultConfig(0)
	hbm.MemLat = hbm.MemCacheLat
	sims := []struct {
		name string
		mk   func() (*tracesim.Simulator, error)
	}{
		{"scalar", func() (*tracesim.Simulator, error) { return tracesim.New(cfg) }},
		{"lanes=3", func() (*tracesim.Simulator, error) { return tracesim.NewLanes([]tracesim.Config{dram, hbm, cfg}) }},
	}
	streams := []struct {
		name string
		mk   func() (tracesim.BlockSource, error)
	}{
		{"seq", func() (tracesim.BlockSource, error) {
			return tracesim.NewSequential(0, footprint, 64, cache.Read)
		}},
		{"random", func() (tracesim.BlockSource, error) {
			return tracesim.NewUniformRandom(0, footprint, footprint/64, cache.Read, 1)
		}},
	}
	for _, sm := range sims {
		for _, st := range streams {
			b.Run(sm.name+"/"+st.name, func(b *testing.B) {
				b.SetBytes(footprint)
				for i := 0; i < b.N; i++ {
					sim, err := sm.mk()
					if err != nil {
						b.Fatal(err)
					}
					src, err := st.mk()
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sim.Run(src, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Functional kernels (real Go performance) ------------------------

func BenchmarkFunctionalTriad(b *testing.B) {
	n := 1 << 20
	a := make([]float64, n)
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 0.5
	}
	b.SetBytes(int64(n) * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stream.Triad(a, x, y, 3.0, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalChase(b *testing.B) {
	p, err := latbench.BuildChase(1<<16, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		latbench.Walk(p, 1<<16)
	}
}

func BenchmarkFunctionalDGEMM(b *testing.B) {
	n := 128
	a := make([]float64, n*n)
	x := make([]float64, n*n)
	c := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i % 7)
		x[i] = float64(i % 5)
	}
	b.SetBytes(int64(2 * n * n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dgemm.Multiply(a, x, c, n, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalCG(b *testing.B) {
	mtx, err := minife.Assemble27Point(12, 12, 12)
	if err != nil {
		b.Fatal(err)
	}
	n := mtx.N
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = float64(i % 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, n)
		if _, err := minife.CG(mtx, rhs, x, 1e-6, 300); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalGUPS(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gups.Run(14, 1<<14, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalBFS(b *testing.B) {
	edges, err := graph500.GenerateEdges(12, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph500.BuildCSR(1<<12, edges)
	if err != nil {
		b.Fatal(err)
	}
	root := int64(0)
	for g.Degree(root) == 0 {
		root++
	}
	b.ResetTimer()
	var traversed int64
	for i := 0; i < b.N; i++ {
		_, tr, err := g.BFS(root, 8)
		if err != nil {
			b.Fatal(err)
		}
		traversed = tr
	}
	b.StopTimer()
	b.ReportMetric(float64(traversed), "edges-traversed")
}

func BenchmarkFunctionalXSLookup(b *testing.B) {
	grid, err := xsbench.Build(64, 256, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := grid.Lookup(0.42); err != nil {
			b.Fatal(err)
		}
	}
}
