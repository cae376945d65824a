package graph500

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/stats"
)

// BenchmarkSpec configures a full Graph500 run as the reference code
// does: generate, build, sample roots, BFS each, validate, and report
// the harmonic mean TEPS.
type BenchmarkSpec struct {
	Scale      int
	Edgefactor int
	Roots      int // reference default is 64
	Threads    int
	Seed       int64
	Validate   bool
}

// BenchmarkResult is the reference-style output.
type BenchmarkResult struct {
	Vertices      int64
	DirectedEdges int64
	HarmonicTEPS  float64
	MinTEPS       float64
	MaxTEPS       float64
	RootsRun      int
	BuildTime     time.Duration
}

// RunBenchmark executes the full benchmark flow functionally. Roots
// with zero degree are skipped, as the spec requires.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func RunBenchmark(spec BenchmarkSpec) (BenchmarkResult, error) {
	if spec.Edgefactor <= 0 {
		spec.Edgefactor = 16
	}
	if spec.Roots <= 0 {
		spec.Roots = 64
	}
	if spec.Threads <= 0 {
		spec.Threads = 1
	}
	start := time.Now()
	edges, err := GenerateEdges(spec.Scale, spec.Edgefactor, spec.Seed)
	if err != nil {
		return BenchmarkResult{}, err
	}
	n := int64(1) << spec.Scale
	g, err := BuildCSR(n, edges)
	if err != nil {
		return BenchmarkResult{}, err
	}
	build := time.Since(start)

	rng := rand.New(rand.NewSource(spec.Seed + 1))
	var teps []float64
	tried := 0
	for len(teps) < spec.Roots && tried < spec.Roots*4 {
		tried++
		root := int64(rng.Intn(int(n)))
		if g.Degree(root) == 0 {
			continue
		}
		t0 := time.Now()
		parent, traversed, err := g.BFS(root, spec.Threads)
		if err != nil {
			return BenchmarkResult{}, err
		}
		dt := time.Since(t0).Seconds()
		if spec.Validate {
			if err := g.ValidateBFSTree(root, parent); err != nil {
				return BenchmarkResult{}, fmt.Errorf("graph500: validation failed for root %d: %w", root, err)
			}
		}
		if dt > 0 && traversed > 0 {
			// The reference metric counts input (undirected) edges.
			teps = append(teps, float64(traversed)/2/dt)
		}
	}
	if len(teps) == 0 {
		return BenchmarkResult{}, fmt.Errorf("graph500: no runnable roots found")
	}
	hm, err := stats.HarmonicMean(teps)
	if err != nil {
		return BenchmarkResult{}, err
	}
	lo, hi, err := stats.MinMax(teps)
	if err != nil {
		return BenchmarkResult{}, err
	}
	return BenchmarkResult{
		Vertices:      n,
		DirectedEdges: g.DirectedEdges(),
		HarmonicTEPS:  hm,
		MinTEPS:       lo,
		MaxTEPS:       hi,
		RootsRun:      len(teps),
		BuildTime:     build,
	}, nil
}
