// Package stream implements the STREAM triad benchmark: the
// functional parallel kernel (used for correctness tests and the
// trace-driven simulator) and the performance model that regenerates
// Fig. 2 (bandwidth vs. size per memory configuration) and Fig. 5
// (bandwidth vs. hardware threads).
package stream

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

// Triad runs a[i] = b[i] + scalar*c[i] over the slices with the given
// goroutine (thread) count and returns the application bytes moved
// (STREAM counts 3 arrays x 8 B x N; KNL streaming stores elide the
// write-allocate read, so this is also the bus traffic).
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func Triad(a, b, c []float64, scalar float64, threads int) (int64, error) {
	n := len(a)
	if len(b) != n || len(c) != n {
		return 0, fmt.Errorf("stream: mismatched lengths %d/%d/%d", n, len(b), len(c))
	}
	if threads <= 0 {
		return 0, fmt.Errorf("stream: thread count %d must be positive", threads)
	}
	if threads > n && n > 0 {
		threads = n
	}
	var wg sync.WaitGroup
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				a[i] = b[i] + scalar*c[i]
			}
		}(lo, hi)
	}
	wg.Wait()
	return int64(n) * 3 * 8, nil
}

// Model is the STREAM performance model.
type Model struct{}

var _ workload.Model = Model{}

// Info describes STREAM. It is a micro-benchmark, not a Table I row,
// so MaxScale is the largest size Fig. 2 sweeps.
func (Model) Info() workload.Info {
	return workload.Info{
		Name:     "STREAM",
		Class:    workload.ClassScientific,
		Pattern:  workload.PatternSequential,
		MaxScale: units.GB(40),
		Metric:   "GB/s",
	}
}

// Predict returns the triad bandwidth in GB/s for a total array
// footprint of `size` bytes (Fig. 2's x axis) at the given thread
// count.
func (mdl Model) Predict(m *engine.Machine, cfg engine.MemoryConfig, size units.Bytes, threads int) (float64, error) {
	return mdl.PredictKernel(m, cfg, TriadKernel, size, threads)
}

// PredictKernel predicts the STREAM-reported bandwidth of any of the
// four kernels. Copy and Scale move two arrays instead of three, so
// for a fixed total allocation the pass traffic is 2/3 of the
// add/triad traffic; the reported bandwidth is the same device
// bandwidth in all four cases, damped by fork/join overhead at small
// sizes.
func (Model) PredictKernel(m *engine.Machine, cfg engine.MemoryConfig, k Kernel, size units.Bytes, threads int) (float64, error) {
	bw, err := m.SeqBandwidth(cfg, size, threads)
	if err != nil {
		return 0, err
	}
	traffic := float64(size)
	if k == Copy || k == Scale {
		traffic *= 2.0 / 3.0
	}
	passNS := traffic/float64(bw) + float64(m.Chip.Cal.ParallelOverheadNS)
	return traffic / passNS, nil
}

// PaperSizes is the Fig. 2 x axis (1-40 GB).
func (Model) PaperSizes() []units.Bytes {
	out := make([]units.Bytes, 0, 20)
	for gb := 2.0; gb <= 40; gb += 2 {
		out = append(out, units.GB(gb))
	}
	return out
}

// Fig5Sizes is the Fig. 5 x axis (2-10 GB).
func (Model) Fig5Sizes() []units.Bytes {
	out := make([]units.Bytes, 0, 5)
	for gb := 2.0; gb <= 10; gb += 2 {
		out = append(out, units.GB(gb))
	}
	return out
}

// Fig6Size: STREAM has no Fig. 6 panel.
func (Model) Fig6Size() units.Bytes { return 0 }
