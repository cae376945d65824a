package xsbench

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// Memory accounting for the unionized layout: each unionized grid
// point stores its energy (8 B) and one int32 index per isotope
// (355 x 4 B = 1420 B); nuclide data adds ~48 B per unionized point.
// ~1476 B per unionized point maps the reference "large" run
// (~4 M points) to the paper's 5.6 GB first size.
const bytesPerGridPoint = 1476

// Per-lookup cost components:
//
//	chase: ~log2(G) dependent probes of the unionized energy array;
//	random: one index-grid line and two bounding XS reads per
//	  isotope (~1.2 line accesses each after caching);
//	flops: XSKinds interpolations per isotope.
const (
	randomPerIsotope = 1.0
	cpuNSPerLookup   = 600.0 // RNG, accumulation, loop bookkeeping
)

// GridPoints returns the unionized point count for a problem of
// `size` bytes.
func GridPoints(size units.Bytes) int64 { return int64(size) / bytesPerGridPoint }

// Model regenerates Fig. 4e (lookups/s vs. size) and Fig. 6d
// (lookups/s vs. threads) — the panel where HBM overtakes DRAM once
// hardware threads hide its latency.
type Model struct{}

var _ workload.Model = Model{}

// Info is XSBench's Table I row.
func (Model) Info() workload.Info {
	return workload.Info{
		Name:     "XSBench",
		Class:    workload.ClassScientific,
		Pattern:  workload.PatternRandom,
		MaxScale: units.GB(90),
		Metric:   "Lookups/s",
	}
}

// Predict returns lookups/s for a problem of `size` bytes.
func (Model) Predict(m *engine.Machine, cfg engine.MemoryConfig, size units.Bytes, threads int) (float64, error) {
	points := GridPoints(size)
	if points < 2 {
		return 0, fmt.Errorf("xsbench: size %v too small", size)
	}
	// Model a batch of lookups; the rate is batch-size independent.
	const lookups = 1e6
	searchLen := math.Log2(float64(points))

	// The binary search walks the unionized energy array (8 B per
	// point); the gathers walk the full index+XS data.
	energyBytes := units.Bytes(points * 8)

	p := engine.Phase{
		Name:            "xs-lookups",
		ChaseOps:        lookups,
		ChaseLength:     searchLen,
		ChaseFootprint:  energyBytes,
		RandomAccesses:  lookups * Isotopes * randomPerIsotope,
		RandomFootprint: size,
		RandomMLP:       6, // independent per-isotope gathers
		Flops:           lookups * Isotopes * XSKinds * 3,
		ComputeEff:      0.02, // scalar, branchy interpolation code
		SerialNS:        lookups * cpuNSPerLookup / float64(threads),
		ParallelRegions: 1,
	}
	r, err := m.SolvePhase(cfg, threads, p)
	if err != nil {
		return 0, err
	}
	return lookups / r.Time.Seconds(), nil
}

// PaperSizes is Fig. 4e's x axis: 5.6 to 90 GB (doubling).
func (Model) PaperSizes() []units.Bytes {
	return []units.Bytes{
		units.GB(5.6), units.GB(11.3), units.GB(22.5), units.GB(45), units.GB(90),
	}
}

// Fig6Size is the fixed size of the Fig. 6d thread sweep (fits HBM so
// all three configurations run).
func (Model) Fig6Size() units.Bytes { return units.GB(5.6) }
