// Package knl holds the machine description and every calibration
// constant of the simulated Intel Knights Landing node.
//
// The paper's testbed is a Cray Archer KNL 7210 node: 64 cores at
// 1.3 GHz, 4 hardware threads per core, 32 active tiles (two cores and
// a shared 1 MB L2 per tile) on a mesh interconnect in quadrant
// cluster mode, 16 GB of MCDRAM (eight 2 GB on-package modules) and
// 96 GB of DDR4 over six 2.1 GHz channels.
//
// Since the hardware is simulated, every performance constant in this
// package is either (a) an architectural fact of the 7210, or (b) a
// calibration fitted to a measurement reported in the paper. Each
// constant's comment names its source.
package knl

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/units"
)

// ChipSpec describes a KNL processor and its memory system.
type ChipSpec struct {
	Name           string
	Cores          int     // physical cores
	ThreadsPerCore int     // hardware threads per core (hyper-threads)
	ClockGHz       float64 // core clock

	// Tile geometry: each active tile holds CoresPerTile cores that
	// share one L2.
	ActiveTiles  int
	CoresPerTile int

	L1DPerCore units.Bytes // private L1 data cache
	L1Assoc    int
	L2PerTile  units.Bytes // shared per-tile L2
	L2Assoc    int

	// FlopsPerCycleDP is the theoretical per-core DP flops per cycle
	// (two 8-wide AVX-512 FMA units => 32).
	FlopsPerCycleDP int

	MCDRAM mem.DeviceSpec
	DDR    mem.DeviceSpec

	Cal Calibration
}

// Calibration gathers every fitted model constant. See the comments on
// each field for its provenance in the paper.
type Calibration struct {
	// SeqLinesPerCore[ht] is the number of in-flight cache lines one
	// core sustains on a sequential (prefetch-friendly) stream when
	// running ht hardware threads. Fitted so that Little's Law
	// reproduces the paper's STREAM results on MCDRAM:
	//   ht=1: 794 total lines * 64 B / 154 ns = 330 GB/s   (Fig. 2)
	//   ht=2: 1.27x the ht=1 bandwidth => ~419 GB/s        (Fig. 5)
	//   ht=3,4: slightly below ht=2 ("varying performance"), Fig. 5.
	// DDR needs only ~156 lines for 77 GB/s, so it is always
	// bandwidth-limited and insensitive to ht (all DRAM lines of
	// Fig. 5 overlap).
	SeqLinesPerCore [5]float64

	// RandomMLPPerThread is the demand memory-level parallelism a
	// single hardware thread sustains on independent random accesses
	// (GUPS-style). Limited by the modest out-of-order window of the
	// Silvermont-derived KNL core plus the address-generation work
	// between loads; 2.0 reproduces the paper's 64-thread ordering
	// (DRAM ahead of HBM on every random workload, Fig. 4c-e) while
	// letting 256 threads push HBM past DRAM (Fig. 6d).
	RandomMLPPerThread float64

	// ChaseMLPPerThread is the per-chain parallelism of a dependent
	// pointer chase: exactly 1 by construction (TinyMemBench's dual
	// random read runs 2 chains => MLP 2 per thread). §IV-A, Fig. 3.
	ChaseMLPPerThread float64

	// L2HitLatency is the random-read latency served from the local
	// tile L2: the ~10 ns plateau for <1 MB blocks in Fig. 3.
	L2HitLatency units.Nanoseconds

	// DualReadPlateauDRAM/HBM are the 2–64 MB plateau latencies of the
	// dual random read (Fig. 3, second tier ~200 ns, DRAM 15-20%
	// faster than HBM).
	DualReadPlateauDRAM units.Nanoseconds
	DualReadPlateauHBM  units.Nanoseconds

	// TLBFullReach is the footprint fully covered by the TLB hierarchy
	// with transparent huge pages; beyond it page walks add latency.
	// Fig. 3 shows latencies rising from ~128 MB.
	TLBFullReach units.Bytes
	// TLBMaxPenalty is the page-walk penalty added at >= 16x the TLB
	// reach (the rise to ~400+ ns at 1 GB in Fig. 3).
	TLBMaxPenalty units.Nanoseconds

	// L2RandomExponent steepens the L2 hit-probability falloff for
	// random accesses beyond the L2 capacity (Fig. 3's sharp 10 ns ->
	// 200 ns transition between 1 MB and 4 MB).
	L2RandomExponent float64

	// Cache-mode (MCDRAM as direct-mapped memory-side cache) stream
	// model, fitted to Fig. 2's Cache Mode curve:
	//   peak 260 GB/s at ~8 GB (half capacity), 125 GB/s at 11.4 GB,
	//   below DRAM (77 GB/s) at 22.8 GB.
	// CacheModeHitBW is the hit-path bandwidth (tag check + data in
	// MCDRAM); CacheModeMissDRAMFactor is the DRAM-traffic
	// amplification of a miss (read + fill + dirty writeback).
	CacheModeHitBW          units.BytesPerNS
	CacheModeMissDRAMFactor float64

	// CacheModeHitRatioAnchors maps working-set/capacity ratio r to
	// the hit ratio h of the direct-mapped MCDRAM cache under
	// streaming reuse, interpolated piecewise-linearly. Fitted to the
	// three Fig. 2 anchor bandwidths listed above.
	CacheModeHitRatioAnchors []HitAnchor

	// CacheModeHitLatency / CacheModeMissLatency: loaded random-read
	// latencies through the memory-side cache, on the same
	// plateau-equivalent scale as DualReadPlateau{DRAM,HBM} (mesh
	// included, TLB excluded). A hit costs roughly the HBM plateau
	// plus the in-MCDRAM tag check; a miss pays the tag check, the
	// DRAM access and the line fill. Together with the TLB ramp these
	// yield Graph500's ~1.3x DRAM-over-cache gap at 35 GB (Fig. 4d).
	CacheModeHitLatency  units.Nanoseconds
	CacheModeMissLatency units.Nanoseconds

	// DGEMM compute-efficiency by hardware threads per core: the
	// fraction of theoretical peak MKL-style blocked DGEMM attains.
	// Fitted to Fig. 4a (~600 GFLOPS at 64 threads) and Fig. 6a
	// (1.7x moving 64 -> 192 threads; 256-thread runs fail).
	DGEMMEff [5]float64

	// ParallelOverheadNS is the per-parallel-region fork/join+imbalance
	// cost (OpenMP-style). It damps performance at the small problem
	// sizes of Fig. 4 (improvement ratios start near 1x).
	ParallelOverheadNS units.Nanoseconds

	// ReductionLatencyNS is the cost of one global reduction (CG dot
	// products, BFS frontier swaps) across 64 cores.
	ReductionLatencyNS units.Nanoseconds
}

// HitAnchor is one point of the cache-mode hit-ratio interpolation.
type HitAnchor struct {
	Ratio float64 // working set / MCDRAM capacity
	Hit   float64 // hit ratio
}

// KNL7210 returns the simulated Archer testbed node used throughout
// the reproduction.
func KNL7210() ChipSpec {
	return ChipSpec{
		Name:           "Intel Xeon Phi 7210 (KNL)",
		Cores:          64,
		ThreadsPerCore: 4,
		ClockGHz:       1.3,
		ActiveTiles:    32,
		CoresPerTile:   2,
		L1DPerCore:     32 * units.KiB,
		L1Assoc:        8,
		L2PerTile:      1 * units.MiB,
		L2Assoc:        16,

		FlopsPerCycleDP: 32,

		MCDRAM: mem.DeviceSpec{
			Kind:     mem.MCDRAM,
			Capacity: 16 * units.GiB,
			Channels: 8,
			// §IV-A: "154.0 ns latency for HBM".
			IdleLatency: 154.0,
			// §II: "peak bandwidth of ~400 GB/s"; headroom to the
			// ~420-450 GB/s multi-HT STREAM results of Fig. 5.
			PeakBW: units.GBps(450),
			// Fig. 5: "HBM can reach as high as 420 GB/s using more
			// hardware threads"; effective ceiling ~430.
			EffSeqBW: units.GBps(430),
		},
		DDR: mem.DeviceSpec{
			Kind:     mem.DDR,
			Capacity: 96 * units.GiB,
			Channels: 6,
			// §IV-A: "130.4 ns for DRAM".
			IdleLatency: 130.4,
			// §II: "DDR can deliver ~90 GB/s".
			PeakBW: units.GBps(90),
			// Fig. 2: "DRAM achieves a maximum of 77 GB/s".
			EffSeqBW: units.GBps(77),
		},

		Cal: Calibration{
			// Index by threads/core; index 0 unused.
			// ht=1: 12.4 lines/core * 64 cores = 794 => 330 GB/s HBM.
			// ht=2: 15.8 => 1011 lines => ~419 GB/s (1.27x).     Fig. 5
			// ht=3: 15.2, ht=4: 14.6 (slight L1/scheduler contention).
			SeqLinesPerCore: [5]float64{0, 12.4, 15.8, 15.2, 14.6},

			RandomMLPPerThread: 2.0,
			ChaseMLPPerThread:  1.0,

			L2HitLatency:        10, // Fig. 3 first tier "~10 ns"
			DualReadPlateauDRAM: 220,
			DualReadPlateauHBM:  266, // ~21% over DRAM before TLB dilution
			TLBFullReach:        64 * units.MiB,
			TLBMaxPenalty:       170,
			L2RandomExponent:    2.0,

			CacheModeHitBW:          units.GBps(300),
			CacheModeMissDRAMFactor: 1.5,
			CacheModeHitRatioAnchors: []HitAnchor{
				{0.00, 0.99},
				{0.40, 0.97},
				{0.50, 0.85}, // => 260 GB/s at 8 GB    (Fig. 2)
				{0.7125, 0.55},
				{0.73, 0.50}, // => ~125 GB/s at 11.4 GB (Fig. 2)
				{1.00, 0.35},
				{1.425, 0.19}, // => ~70 GB/s < DRAM at 22.8 GB (Fig. 2)
				{2.00, 0.10},
				{3.00, 0.05},
			},
			CacheModeHitLatency:  250,
			CacheModeMissLatency: 340,

			// ht=1: 0.225 * 2662 GFLOPS peak = ~600 GFLOPS (Fig. 4a);
			// ht=3: 0.385 => 1.7x over ht=1 (Fig. 6a). ht=4 runs fail
			// in the paper; the value is kept for the simulator's
			// ablation mode but the harness reports ht=4 as N/A.
			DGEMMEff: [5]float64{0, 0.225, 0.33, 0.385, 0.36},

			ParallelOverheadNS: 20_000, // ~20 us per parallel region
			ReductionLatencyNS: 12_000, // ~12 us per 64-core reduction
		},
	}
}

// Validate checks spec consistency.
func (c ChipSpec) Validate() error {
	if c.Cores <= 0 || c.ThreadsPerCore <= 0 {
		return fmt.Errorf("knl: bad core/thread counts %d/%d", c.Cores, c.ThreadsPerCore)
	}
	if c.ActiveTiles*c.CoresPerTile != c.Cores {
		return fmt.Errorf("knl: tiles*coresPerTile = %d, want %d cores",
			c.ActiveTiles*c.CoresPerTile, c.Cores)
	}
	if err := c.MCDRAM.Validate(); err != nil {
		return err
	}
	if err := c.DDR.Validate(); err != nil {
		return err
	}
	for ht := 1; ht <= c.ThreadsPerCore; ht++ {
		if c.Cal.SeqLinesPerCore[ht] <= 0 {
			return fmt.Errorf("knl: missing sequential concurrency for ht=%d", ht)
		}
		if c.Cal.DGEMMEff[ht] <= 0 || c.Cal.DGEMMEff[ht] > 1 {
			return fmt.Errorf("knl: bad DGEMM efficiency for ht=%d", ht)
		}
	}
	prev := -1.0
	for _, a := range c.Cal.CacheModeHitRatioAnchors {
		if a.Ratio <= prev {
			return fmt.Errorf("knl: cache-mode anchors not strictly increasing at r=%v", a.Ratio)
		}
		if a.Hit < 0 || a.Hit > 1 {
			return fmt.Errorf("knl: cache-mode hit ratio out of range at r=%v", a.Ratio)
		}
		prev = a.Ratio
	}
	return nil
}

// PeakGFLOPS returns the theoretical double-precision peak of the chip
// (64 cores x 32 flops/cycle x 1.3 GHz = 2662.4 GFLOPS for the 7210).
func (c ChipSpec) PeakGFLOPS() float64 {
	return float64(c.Cores*c.FlopsPerCycleDP) * c.ClockGHz
}

// MaxThreads returns the hardware-thread capacity of the node (256).
func (c ChipSpec) MaxThreads() int { return c.Cores * c.ThreadsPerCore }

// ThreadsPerCoreFor returns the hardware threads per core implied by a
// total OpenMP-style thread count, mirroring compact affinity: 64
// threads -> 1 per core, 128 -> 2, 192 -> 3, 256 -> 4. Thread counts
// below the core count leave cores idle (ht=1 on the used cores).
func (c ChipSpec) ThreadsPerCoreFor(threads int) int {
	if threads <= c.Cores {
		return 1
	}
	ht := (threads + c.Cores - 1) / c.Cores
	if ht > c.ThreadsPerCore {
		ht = c.ThreadsPerCore
	}
	return ht
}

// ActiveCoresFor returns how many cores a thread count occupies.
func (c ChipSpec) ActiveCoresFor(threads int) int {
	if threads >= c.Cores {
		return c.Cores
	}
	if threads < 1 {
		return 1
	}
	return threads
}

// SeqConcurrency returns the total outstanding-line concurrency a
// sequential stream sustains at the given total thread count.
func (c ChipSpec) SeqConcurrency(threads int) float64 {
	ht := c.ThreadsPerCoreFor(threads)
	return float64(c.ActiveCoresFor(threads)) * c.Cal.SeqLinesPerCore[ht]
}

// RandomConcurrency returns the total outstanding-line concurrency of
// independent random accesses at the given thread count, with a
// per-thread MLP override (<=0 means the calibrated default).
func (c ChipSpec) RandomConcurrency(threads int, mlpPerThread float64) float64 {
	if mlpPerThread <= 0 {
		mlpPerThread = c.Cal.RandomMLPPerThread
	}
	// Per-core demand concurrency saturates: four threads of a core
	// share miss-handling resources.
	ht := c.ThreadsPerCoreFor(threads)
	cores := c.ActiveCoresFor(threads)
	perCore := float64(ht) * mlpPerThread
	if cap := c.Cal.SeqLinesPerCore[c.ThreadsPerCore] * 1.25; perCore > cap {
		perCore = cap
	}
	return float64(cores) * perCore
}
