package engine_test

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/units"
)

// The two-regime bandwidth model: DRAM saturates with little
// concurrency, HBM keeps scaling — the root cause of every
// hardware-threading result in the paper.
func ExampleMachine_SeqBandwidth() {
	m := engine.Default()
	for _, threads := range []int{64, 128} {
		d, _ := m.SeqBandwidth(engine.DRAM, units.GB(8), threads)
		h, _ := m.SeqBandwidth(engine.HBM, units.GB(8), threads)
		fmt.Printf("threads=%d DRAM=%.0f HBM=%.0f GB/s\n", threads, float64(d), float64(h))
	}
	// Output:
	// threads=64 DRAM=77 HBM=330 GB/s
	// threads=128 DRAM=77 HBM=420 GB/s
}

// The latency model behind Fig. 3: tiers by footprint, DRAM ahead.
func ExampleMachine_DualRandomReadLatency() {
	m := engine.Default()
	for _, size := range []units.Bytes{512 * units.KiB, 16 * units.MiB, units.GiB} {
		d := m.DualRandomReadLatency(engine.DRAM, size)
		h := m.DualRandomReadLatency(engine.HBM, size)
		fmt.Printf("%-9v DRAM=%3.0f HBM=%3.0f ns\n", size, float64(d), float64(h))
	}
	// Output:
	// 512.0 KiB DRAM= 10 HBM= 10 ns
	// 16.0 MiB  DRAM=219 HBM=265 ns
	// 1.0 GiB   DRAM=390 HBM=436 ns
}

// Phases describe workloads; the solver finds the bottleneck.
func ExampleMachine_SolvePhase() {
	m := engine.Default()
	r, err := m.SolvePhase(engine.HBM, 64, engine.Phase{
		Name:         "triad",
		SeqBytes:     330e9,
		SeqFootprint: units.GB(8),
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s-bound, ~%.1f s\n", r.Bottleneck, r.Time.Seconds())
	// Output:
	// bandwidth-bound, ~1.0 s
}
