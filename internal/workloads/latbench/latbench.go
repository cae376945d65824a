// Package latbench reimplements the TinyMemBench dual random read
// experiment of Fig. 3: dependent pointer chases over a block of
// configurable size, measuring average access latency.
//
// The functional layer builds a full-cycle random permutation
// (Sattolo's algorithm) and walks it — exactly what latency
// micro-benchmarks do to defeat prefetching — and is used by the
// trace-driven simulator. The model layer queries the engine's
// latency model.
package latbench

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// BuildChase builds a pointer-chase permutation over n slots using
// Sattolo's algorithm, which guarantees a single cycle visiting every
// slot (so a walk of n steps touches the whole buffer).
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func BuildChase(n int, seed int64) ([]int32, error) {
	if n < 2 {
		return nil, fmt.Errorf("latbench: chase needs at least 2 slots, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	// Sattolo: like Fisher-Yates but j < i strictly.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		p[i], p[j] = p[j], p[i]
	}
	return p, nil
}

// Walk performs `steps` dependent loads starting at index 0 and
// returns the final index (forcing the chain to be computed).
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func Walk(chase []int32, steps int) int32 {
	idx := int32(0)
	for s := 0; s < steps; s++ {
		idx = chase[idx]
	}
	return idx
}

// WalkDual performs two interleaved chases (the "dual random read")
// and returns both final indices.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func WalkDual(chase []int32, steps int) (int32, int32) {
	n := int32(len(chase))
	a, b := int32(0), n/2
	for s := 0; s < steps; s++ {
		a = chase[a]
		b = chase[b]
	}
	return a, b
}

// Model is the dual-random-read latency model (Fig. 3).
type Model struct{}

var _ workload.Model = Model{}

// Info describes the micro-benchmark.
func (Model) Info() workload.Info {
	return workload.Info{
		Name:     "TinyMemBench",
		Class:    workload.ClassScientific,
		Pattern:  workload.PatternRandom,
		MaxScale: units.GB(1),
		Metric:   "ns",
	}
}

// Predict returns the average dual random read latency in ns for a
// block of `size` bytes. Lower is better for this metric; the thread
// count is fixed at 1 by the experiment's design and ignored.
func (Model) Predict(m *engine.Machine, cfg engine.MemoryConfig, size units.Bytes, _ int) (float64, error) {
	if err := m.CheckFit(cfg, size); err != nil {
		return 0, err
	}
	return float64(m.DualRandomReadLatency(cfg, size)), nil
}

// PaperSizes is Fig. 3's x axis: 128 KB to 1 GB, doubling.
func (Model) PaperSizes() []units.Bytes {
	out := []units.Bytes{}
	for b := 128 * units.KiB; b <= units.GiB; b *= 2 {
		out = append(out, b)
	}
	return out
}

// Fig6Size: no thread sweep for the latency probe.
func (Model) Fig6Size() units.Bytes { return 0 }
