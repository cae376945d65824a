package engine

import (
	"fmt"
	"testing"

	"repro/internal/knl"
	"repro/internal/mem"
	"repro/internal/units"
)

// variants are the second-generation Xeon Phi SKUs ChipForSKU serves.
var variants = []knl.ChipSpec{knl.KNL7210(), knl.KNL7230(), knl.KNL7250(), knl.KNL7290()}

// The paper's §VI generalization claim: the qualitative conclusions
// hold for "other heterogeneous memory systems with similar
// characteristics". These tests run the engine on the other KNL SKUs
// and a generic HBM2-class machine and require the dichotomy to
// survive.
func TestConclusionsHoldAcrossVariants(t *testing.T) {
	for _, chip := range variants {
		m, err := NewMachine(chip)
		if err != nil {
			t.Fatalf("%s: %v", chip.Name, err)
		}
		// Bandwidth dichotomy: HBM streams much faster than DRAM.
		d, err := m.SeqBandwidth(DRAM, units.GB(8), 64)
		if err != nil {
			t.Fatal(err)
		}
		h, err := m.SeqBandwidth(HBM, units.GB(8), 64)
		if err != nil {
			t.Fatal(err)
		}
		if float64(h) < 2.5*float64(d) {
			t.Errorf("%s: HBM %v not >2.5x DRAM %v", chip.Name, h, d)
		}
		// Latency dichotomy: DRAM random reads are faster.
		ld := m.RandomReadLatency(DRAM, units.MB(64), 1)
		lh := m.RandomReadLatency(HBM, units.MB(64), 1)
		if lh <= ld {
			t.Errorf("%s: HBM latency %v not above DRAM %v", chip.Name, lh, ld)
		}
	}
}

func TestConclusionsHoldOnGenericHybrid(t *testing.T) {
	chip, err := genericHybrid("hbm2-node",
		64*units.GiB, 800, 150, 512*units.GiB, 200, 95)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(chip)
	if err != nil {
		t.Fatal(err)
	}
	// A random workload still prefers the low-latency slow memory at
	// low concurrency...
	p := Phase{RandomAccesses: 1e8, RandomFootprint: units.GB(32)}
	rd, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := m.SolvePhase(HBM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	if rd.Time >= rh.Time {
		t.Errorf("generic machine lost the latency dichotomy: DRAM %v vs HBM %v", rd.Time, rh.Time)
	}
	// ...and a streaming workload prefers the fast memory.
	s := Phase{SeqBytes: 100e9, SeqFootprint: units.GB(32)}
	sd, _ := m.SolvePhase(DRAM, 64, s)
	sh, _ := m.SolvePhase(HBM, 64, s)
	if sh.Time >= sd.Time {
		t.Errorf("generic machine lost the bandwidth dichotomy: HBM %v vs DRAM %v", sh.Time, sd.Time)
	}
	// Capacity bookkeeping follows the new sizes.
	if m.Capacity(HBM) != 64*units.GiB {
		t.Errorf("capacity = %v", m.Capacity(HBM))
	}
}

// Engine-level property: on every variant, more hardware threads never
// reduce sequential bandwidth on HBM up to 2 HT/core, and never change
// DRAM bandwidth at all.
func TestVariantThreadScalingShape(t *testing.T) {
	for _, chip := range variants {
		m, err := NewMachine(chip)
		if err != nil {
			t.Fatal(err)
		}
		h1, _ := m.SeqBandwidth(HBM, units.GB(4), chip.Cores)
		h2, _ := m.SeqBandwidth(HBM, units.GB(4), 2*chip.Cores)
		if h2 < h1 {
			t.Errorf("%s: ht2 bandwidth fell: %v -> %v", chip.Name, h1, h2)
		}
		d1, _ := m.SeqBandwidth(DRAM, units.GB(4), chip.Cores)
		d2, _ := m.SeqBandwidth(DRAM, units.GB(4), 2*chip.Cores)
		if d1 != d2 {
			t.Errorf("%s: DRAM moved with threads: %v -> %v", chip.Name, d1, d2)
		}
	}
}

// genericHybrid builds a machine with arbitrary fast/slow memory
// characteristics, keeping KNL-like cores. The latency ratio and
// bandwidth ratio are the two quantities the paper's analysis turns
// on; everything else is carried over from the calibrated baseline.
func genericHybrid(name string, fastCap units.Bytes, fastBW, fastLatNS float64,
	slowCap units.Bytes, slowBW, slowLatNS float64) (knl.ChipSpec, error) {
	if fastCap <= 0 || slowCap <= 0 || fastBW <= 0 || slowBW <= 0 || fastLatNS <= 0 || slowLatNS <= 0 {
		return knl.ChipSpec{}, fmt.Errorf("generic hybrid needs positive parameters")
	}
	if fastBW < slowBW {
		return knl.ChipSpec{}, fmt.Errorf("'fast' memory (%v GB/s) slower than 'slow' (%v GB/s)", fastBW, slowBW)
	}
	c := knl.KNL7210()
	c.Name = name
	c.MCDRAM = mem.DeviceSpec{
		Kind: mem.MCDRAM, Capacity: fastCap, Channels: 8,
		IdleLatency: units.Nanoseconds(fastLatNS),
		PeakBW:      units.GBps(fastBW), EffSeqBW: units.GBps(fastBW * 0.95),
	}
	c.DDR = mem.DeviceSpec{
		Kind: mem.DDR, Capacity: slowCap, Channels: 6,
		IdleLatency: units.Nanoseconds(slowLatNS),
		PeakBW:      units.GBps(slowBW), EffSeqBW: units.GBps(slowBW * 0.86),
	}
	// Scale the dual-read plateaus with the idle-latency change so the
	// random-access model follows the new devices.
	base := knl.KNL7210()
	c.Cal.DualReadPlateauDRAM = units.Nanoseconds(float64(base.Cal.DualReadPlateauDRAM) * slowLatNS / float64(base.DDR.IdleLatency))
	c.Cal.DualReadPlateauHBM = units.Nanoseconds(float64(base.Cal.DualReadPlateauHBM) * fastLatNS / float64(base.MCDRAM.IdleLatency))
	c.Cal.CacheModeHitLatency = units.Nanoseconds(float64(base.Cal.CacheModeHitLatency) * fastLatNS / float64(base.MCDRAM.IdleLatency))
	c.Cal.CacheModeMissLatency = units.Nanoseconds(float64(base.Cal.CacheModeMissLatency) * slowLatNS / float64(base.DDR.IdleLatency))
	return c, c.Validate()
}

func TestGenericHybrid(t *testing.T) {
	// An HBM2+DDR5-like machine: bigger fast memory, lower latencies.
	c, err := genericHybrid("hbm2-node", 64*units.GiB, 800, 120, 512*units.GiB, 200, 90)
	if err != nil {
		t.Fatal(err)
	}
	if c.MCDRAM.Capacity != 64*units.GiB || c.DDR.Capacity != 512*units.GiB {
		t.Error("capacities not applied")
	}
	// Plateaus scale with the latency change.
	base := knl.KNL7210()
	if c.Cal.DualReadPlateauDRAM >= base.Cal.DualReadPlateauDRAM {
		t.Error("lower slow-memory latency should lower the DRAM plateau")
	}
	if c.Cal.DualReadPlateauHBM >= base.Cal.DualReadPlateauHBM {
		t.Error("lower fast-memory latency should lower the HBM plateau")
	}
}

func TestGenericHybridValidation(t *testing.T) {
	if _, err := genericHybrid("x", 0, 800, 120, 512*units.GiB, 200, 90); err == nil {
		t.Error("zero fast capacity accepted")
	}
	if _, err := genericHybrid("x", units.GiB, 100, 120, units.GiB, 200, 90); err == nil {
		t.Error("fast memory slower than slow memory accepted")
	}
	if _, err := genericHybrid("x", units.GiB, 800, -1, units.GiB, 200, 90); err == nil {
		t.Error("negative latency accepted")
	}
}
