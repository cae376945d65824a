package engine

import (
	"testing"

	"repro/internal/units"
)

// Sub-node thread counts (fewer threads than cores) leave cores idle;
// the engine must scale concurrency with active cores.
func TestSubNodeThreadCounts(t *testing.T) {
	m := Default()

	// HBM bandwidth grows with core count until the device saturates.
	prev := units.BytesPerNS(0)
	for _, threads := range []int{4, 8, 16, 32, 64} {
		bw, err := m.SeqBandwidth(HBM, units.GB(4), threads)
		if err != nil {
			t.Fatal(err)
		}
		if bw <= prev {
			t.Errorf("HBM bandwidth did not grow at %d threads: %v <= %v", threads, bw, prev)
		}
		prev = bw
	}

	// DRAM saturates with a fraction of the cores: by 16 threads the
	// stream is already at the 77 GB/s wall (the reason the paper's
	// DRAM lines are flat).
	bw16, _ := m.SeqBandwidth(DRAM, units.GB(4), 16)
	bw64, _ := m.SeqBandwidth(DRAM, units.GB(4), 64)
	if float64(bw16) < 70 || float64(bw64)-float64(bw16) > 8 {
		t.Errorf("DRAM should saturate early: 16thr=%v 64thr=%v", bw16, bw64)
	}

	// Phases solve at tiny thread counts too.
	p := Phase{SeqBytes: 1e9, SeqFootprint: units.GB(1), RandomAccesses: 1e6, RandomFootprint: units.GB(1)}
	r1, err := m.SolvePhase(DRAM, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	r64, err := m.SolvePhase(DRAM, 64, p)
	if err != nil {
		t.Fatal(err)
	}
	if r64.Time > r1.Time {
		t.Errorf("64 threads (%v) slower than 1 thread (%v)", r64.Time, r1.Time)
	}
}
