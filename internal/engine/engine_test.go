package engine

import (
	"errors"
	"math"
	"testing"

	"repro/internal/units"
)

func TestConfigValidateAndString(t *testing.T) {
	for _, c := range PaperConfigs() {
		if err := c.Validate(); err != nil {
			t.Errorf("%v invalid: %v", c, err)
		}
	}
	if DRAM.String() != "DRAM" || HBM.String() != "HBM" || Cache.String() != "Cache Mode" {
		t.Error("paper config names wrong")
	}
	if (MemoryConfig{Kind: InterleaveFlat}).String() != "Interleave" {
		t.Error("interleave name wrong")
	}
	h := MemoryConfig{Kind: Hybrid, HybridFlatFraction: 0.5}
	if err := h.Validate(); err != nil {
		t.Errorf("hybrid invalid: %v", err)
	}
	if h.String() != "Hybrid(50% flat)" {
		t.Errorf("hybrid string = %q", h.String())
	}
	if err := (MemoryConfig{Kind: Hybrid}).Validate(); err == nil {
		t.Error("hybrid without fraction accepted")
	}
	if err := (MemoryConfig{Kind: ConfigKind(9)}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if ConfigKind(9).String() != "ConfigKind(9)" {
		t.Error("unknown kind formatting")
	}
}

func TestMachineCapacity(t *testing.T) {
	m := Default()
	if m.Capacity(DRAM) != 96*units.GiB {
		t.Errorf("DRAM capacity = %v", m.Capacity(DRAM))
	}
	if m.Capacity(HBM) != 16*units.GiB {
		t.Errorf("HBM capacity = %v", m.Capacity(HBM))
	}
	if m.Capacity(Cache) != 96*units.GiB {
		t.Errorf("cache capacity = %v", m.Capacity(Cache))
	}
	if m.Capacity(MemoryConfig{Kind: InterleaveFlat}) != 112*units.GiB {
		t.Error("interleave capacity")
	}
	if got := m.Capacity(MemoryConfig{Kind: Hybrid, HybridFlatFraction: 0.5}); got != 104*units.GiB {
		t.Errorf("hybrid capacity = %v", got)
	}
	var e ErrDoesNotFit
	if err := m.CheckFit(HBM, 17*units.GiB); !errors.As(err, &e) {
		t.Fatalf("CheckFit should fail with ErrDoesNotFit, got %v", err)
	} else if e.Need != 17*units.GiB || e.Have != 16*units.GiB {
		t.Errorf("ErrDoesNotFit fields: %+v", e)
	}
	if e.Error() == "" {
		t.Error("empty error string")
	}
}

func TestNUMATopologyPerConfig(t *testing.T) {
	m := Default()
	flat, err := m.NUMATopology(HBM)
	if err != nil || len(flat.Nodes) != 2 {
		t.Fatalf("flat topology: %v %v", flat, err)
	}
	cm, err := m.NUMATopology(Cache)
	if err != nil || len(cm.Nodes) != 1 {
		t.Fatalf("cache topology: %v %v", cm, err)
	}
	hy, err := m.NUMATopology(MemoryConfig{Kind: Hybrid, HybridFlatFraction: 0.25})
	if err != nil || hy.Nodes[1].Capacity != 4*units.GiB {
		t.Fatalf("hybrid topology: %v %v", hy, err)
	}
}

func TestIdleLatencies(t *testing.T) {
	d, h := Default().IdleLatencies()
	if d != 130.4 || h != 154.0 {
		t.Fatalf("idle latencies %v/%v", d, h)
	}
}

// --- Fig. 2 shapes -------------------------------------------------

func TestSeqBandwidthFig2Anchors(t *testing.T) {
	m := Default()
	ws := units.GB(8)

	d, err := m.SeqBandwidth(DRAM, ws, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(d)-77) > 3 {
		t.Errorf("DRAM stream = %v, want ~77 GB/s", d)
	}

	h, err := m.SeqBandwidth(HBM, ws, 64)
	if err != nil {
		t.Fatal(err)
	}
	if float64(h) < 310 || float64(h) > 350 {
		t.Errorf("HBM stream = %v, want ~330 GB/s", h)
	}
	if r := float64(h) / float64(d); r < 3.8 || r > 4.8 {
		t.Errorf("HBM/DRAM = %.2f, want ~4.3x (the paper's '4x higher bandwidth')", r)
	}

	c, err := m.SeqBandwidth(Cache, ws, 64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(c)-260) > 25 {
		t.Errorf("cache-mode stream at 8 GB = %v, want ~260 GB/s", c)
	}
}

func TestSeqBandwidthCacheModeCliff(t *testing.T) {
	m := Default()
	at := func(gb float64) float64 {
		bw, err := m.SeqBandwidth(Cache, units.GB(gb), 64)
		if err != nil {
			t.Fatal(err)
		}
		return float64(bw)
	}
	// 11.4 GB: the measured collapse to ~125 GB/s.
	if v := at(11.4); math.Abs(v-125) > 20 {
		t.Errorf("cache mode at 11.4 GB = %.0f, want ~125", v)
	}
	// 22.8 GB: below the DRAM line (the paper's crossover).
	dram, _ := m.SeqBandwidth(DRAM, units.GB(22.8), 64)
	if v := at(22.8); v >= float64(dram) {
		t.Errorf("cache mode at 22.8 GB = %.0f, should drop below DRAM %.0f", v, float64(dram))
	}
	// Still better than DRAM in the 16-20 GB band ("larger than HBM
	// but comparable": cache mode provides higher bandwidth).
	dram16, _ := m.SeqBandwidth(DRAM, units.GB(16), 64)
	if v := at(16); v <= float64(dram16) {
		t.Errorf("cache mode at 16 GB = %.0f, should beat DRAM %.0f", v, float64(dram16))
	}
	// Monotone nonincreasing beyond half capacity.
	prev := math.Inf(1)
	for gb := 8.0; gb <= 40; gb += 2 {
		v := at(gb)
		if v > prev+1e-9 {
			t.Errorf("cache-mode bandwidth increased at %v GB", gb)
		}
		prev = v
	}
}

func TestSeqBandwidthHBMDoesNotFit(t *testing.T) {
	m := Default()
	if _, err := m.SeqBandwidth(HBM, units.GB(20), 64); err == nil {
		t.Fatal("20 GB should not fit HBM (Fig. 2 stops the HBM line)")
	}
}

// --- Fig. 5 shapes -------------------------------------------------

func TestSeqBandwidthHardwareThreads(t *testing.T) {
	m := Default()
	ws := units.GB(8)

	h1, _ := m.SeqBandwidth(HBM, ws, 64)
	h2, _ := m.SeqBandwidth(HBM, ws, 128)
	r := float64(h2) / float64(h1)
	if r < 1.2 || r > 1.35 {
		t.Errorf("HBM ht2/ht1 = %.3f, want ~1.27 (Fig. 5)", r)
	}
	if float64(h2) < 400 || float64(h2) > 440 {
		t.Errorf("HBM ht=2 = %v, want ~420 GB/s", h2)
	}

	// DRAM is insensitive to hardware threads (all red lines overlap).
	d1, _ := m.SeqBandwidth(DRAM, ws, 64)
	for _, threads := range []int{128, 192, 256} {
		dn, _ := m.SeqBandwidth(DRAM, ws, threads)
		if math.Abs(float64(dn)-float64(d1)) > 1 {
			t.Errorf("DRAM bandwidth moved with threads=%d: %v vs %v", threads, dn, d1)
		}
	}
}

// --- Fig. 3 shapes -------------------------------------------------

func TestDualRandomReadLatencyTiers(t *testing.T) {
	m := Default()

	// Tier 1: < 1 MB => ~10 ns.
	if l := m.DualRandomReadLatency(DRAM, 512*units.KiB); l > 15 {
		t.Errorf("512 KiB latency = %v, want ~10 ns", l)
	}
	// Tier 2: 2-64 MB => ~200 ns.
	for _, mb := range []float64{4, 16, 64} {
		l := float64(m.DualRandomReadLatency(DRAM, units.MB(mb)))
		if l < 150 || l > 260 {
			t.Errorf("DRAM latency at %v MB = %.0f, want ~200 ns", mb, l)
		}
	}
	// Tier 3: rising past 128 MB.
	l128 := m.DualRandomReadLatency(DRAM, units.MB(128))
	l1g := m.DualRandomReadLatency(DRAM, units.GB(1))
	if l1g <= l128 {
		t.Errorf("latency should rise past 128 MB: %v -> %v", l128, l1g)
	}
	if float64(l1g) < 330 || float64(l1g) > 480 {
		t.Errorf("1 GB latency = %v, want ~400 ns", l1g)
	}
}

func TestDualRandomReadDRAMFasterThanHBM(t *testing.T) {
	m := Default()
	peak := 0.0
	for _, mb := range []float64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		d := float64(m.DualRandomReadLatency(DRAM, units.MB(mb)))
		h := float64(m.DualRandomReadLatency(HBM, units.MB(mb)))
		gap := (h - d) / d
		if gap < 0.10 || gap > 0.25 {
			t.Errorf("gap at %v MB = %.1f%%, want 10-25%% (paper: 15-20%%)", mb, gap*100)
		}
		if gap > peak {
			peak = gap
		}
	}
	if peak < 0.17 {
		t.Errorf("peak gap = %.1f%%, want ~20%%", peak*100)
	}
}

func TestRandomLatencyMonotoneInFootprint(t *testing.T) {
	m := Default()
	for _, cfg := range PaperConfigs() {
		prev := units.Nanoseconds(0)
		for _, mb := range []float64{0.25, 0.5, 1, 2, 8, 32, 128, 512, 2048, 8192} {
			l := m.RandomReadLatency(cfg, units.MB(mb), 1)
			if l < prev {
				t.Errorf("%v: latency decreased at %v MB: %v < %v", cfg, mb, l, prev)
			}
			prev = l
		}
	}
}

// --- phase solver --------------------------------------------------

func TestSolvePhaseComputeBound(t *testing.T) {
	m := Default()
	p := Phase{Name: "gemm", Flops: 1e12, ComputeEff: 0.5}
	r, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	wantNS := 1e12 / (2662.4 * 0.5)
	if math.Abs(float64(r.Time)-wantNS) > 1e-6*wantNS {
		t.Errorf("compute time = %v, want %v ns", r.Time, wantNS)
	}
	if r.Bottleneck != "compute" {
		t.Errorf("bottleneck = %q", r.Bottleneck)
	}
}

func TestSolvePhaseBandwidthBound(t *testing.T) {
	m := Default()
	p := Phase{Name: "triad", SeqBytes: 77e9, SeqFootprint: units.GB(8)}
	r, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	// 77 GB at 77 GB/s = ~1 s.
	if math.Abs(r.Time.Seconds()-1.0) > 0.1 {
		t.Errorf("stream time = %v, want ~1 s", r.Time)
	}
	if r.Bottleneck != "bandwidth" {
		t.Errorf("bottleneck = %q", r.Bottleneck)
	}
	// Same phase on HBM is ~4x faster.
	rh, err := m.SolvePhase(HBM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(r.Time) / float64(rh.Time); ratio < 3.5 || ratio > 5 {
		t.Errorf("HBM speedup = %.2f, want ~4.3", ratio)
	}
}

func TestSolvePhaseLatencyBound(t *testing.T) {
	m := Default()
	p := Phase{
		Name:            "gups",
		RandomAccesses:  1e8,
		RandomFootprint: units.GB(8),
	}
	rd, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := m.SolvePhase(HBM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	// Latency-bound: DRAM must WIN (the paper's central negative
	// result for random access at one thread per core).
	if rd.Time >= rh.Time {
		t.Errorf("DRAM (%v) should beat HBM (%v) on random access", rd.Time, rh.Time)
	}
	if rd.Bottleneck != "latency(random)" {
		t.Errorf("bottleneck = %q", rd.Bottleneck)
	}
}

func TestSolvePhaseChase(t *testing.T) {
	m := Default()
	p := Phase{
		Name:           "search",
		ChaseOps:       1e6,
		ChaseLength:    20,
		ChaseFootprint: units.GB(8),
	}
	r, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bottleneck != "latency(chase)" {
		t.Errorf("bottleneck = %q", r.Bottleneck)
	}
	// Doubling threads halves chase time (independent ops pipeline).
	r2, _ := m.SolvePhase(DRAM, 128, p)
	ratio := float64(r.ChaseTime) / float64(r2.ChaseTime)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("chase thread scaling = %.2f, want ~2 (modulo contention)", ratio)
	}
}

func TestSolvePhaseOverheads(t *testing.T) {
	m := Default()
	p := Phase{Name: "sync-heavy", Syncs: 100, ParallelRegions: 10, SerialNS: 5000}
	r, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	cal := m.Chip.Cal
	want := 100*float64(cal.ReductionLatencyNS) + 10*float64(cal.ParallelOverheadNS) + 5000
	if math.Abs(float64(r.OverheadNS)-want) > 1 {
		t.Errorf("overhead = %v, want %v", r.OverheadNS, want)
	}
	if r.Bottleneck != "overhead" {
		t.Errorf("bottleneck = %q", r.Bottleneck)
	}
}

func TestSolvePhaseErrors(t *testing.T) {
	m := Default()
	if _, err := m.SolvePhase(DRAM, 0, Phase{}); err == nil {
		t.Error("zero threads accepted")
	}
	big := Phase{SeqBytes: 1, SeqFootprint: 20 * units.GiB}
	if _, err := m.SolvePhase(HBM, 64, big); err == nil {
		t.Error("oversized footprint accepted on HBM")
	}
	if _, err := m.SolvePhase(MemoryConfig{Kind: Hybrid}, 64, Phase{}); err == nil {
		t.Error("invalid hybrid config accepted")
	}
}

func TestSolvePhases(t *testing.T) {
	m := Default()
	phases := []Phase{
		{Name: "a", SeqBytes: 1e9, SeqFootprint: units.GB(1)},
		{Name: "b", SeqBytes: 1e9, SeqFootprint: units.GB(1)},
	}
	total, results, err := m.SolvePhases(DRAM, 64, phases)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if total != results[0].Time+results[1].Time {
		t.Error("total is not the sum of phases")
	}
	phases[1].SeqFootprint = 200 * units.GiB
	if _, _, err := m.SolvePhases(DRAM, 64, phases); err == nil {
		t.Error("oversized phase accepted")
	}
}

func TestInterleaveBandwidthBetween(t *testing.T) {
	m := Default()
	il := MemoryConfig{Kind: InterleaveFlat}
	bw, err := m.SeqBandwidth(il, units.GB(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := m.SeqBandwidth(DRAM, units.GB(8), 64)
	h, _ := m.SeqBandwidth(HBM, units.GB(8), 64)
	if float64(bw) <= float64(d) || float64(bw) >= float64(h) {
		t.Errorf("interleave bw %v should sit between DRAM %v and HBM %v", bw, d, h)
	}
	// And it can hold a 100 GiB problem that fits neither device rule
	// for HBM (the §IV-C capacity argument).
	if err := m.CheckFit(il, 100*units.GiB); err != nil {
		t.Errorf("100 GiB should fit interleave: %v", err)
	}
}

func TestHybridBandwidth(t *testing.T) {
	m := Default()
	hy := MemoryConfig{Kind: Hybrid, HybridFlatFraction: 0.5}
	// Fits in the flat half: full HBM speed.
	bw, err := m.SeqBandwidth(hy, units.GB(7), 64)
	if err != nil {
		t.Fatal(err)
	}
	hbm, _ := m.SeqBandwidth(HBM, units.GB(7), 64)
	if math.Abs(float64(bw)-float64(hbm)) > 1 {
		t.Errorf("hybrid within flat part = %v, want %v", bw, hbm)
	}
	// Larger: blended below pure HBM.
	bw2, err := m.SeqBandwidth(hy, units.GB(14), 64)
	if err != nil {
		t.Fatal(err)
	}
	if bw2 >= bw {
		t.Errorf("hybrid beyond flat part should slow down: %v >= %v", bw2, bw)
	}
}

func TestRandomAccessRateBandwidthCap(t *testing.T) {
	m := Default()
	// Huge MLP pushes the solved random-access rate into the bandwidth
	// cap.
	p := Phase{RandomAccesses: 1e9, RandomFootprint: units.GB(8), RandomMLP: 64}
	r, err := m.SolvePhase(DRAM, 256, p)
	if err != nil {
		t.Fatal(err)
	}
	rate := p.RandomAccesses / float64(r.RandomTime)
	maxRate := float64(m.Chip.DDR.EffSeqBW) / 64
	if rate > maxRate*(1+1e-9) {
		t.Errorf("rate %v exceeds DRAM line cap %v", rate, maxRate)
	}
}
