package xsbench

import (
	"fmt"
	"math/rand"
	"sync"
)

// RunParallel performs `lookups` cross-section lookups spread across
// `threads` goroutines — the reference benchmark's OpenMP event loop —
// and returns the accumulated verification value and total search
// probes (binary-search depth counter).
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func (g *Grid) RunParallel(lookups, threads int, seed int64) (float64, int64, error) {
	if lookups <= 0 || threads <= 0 {
		return 0, 0, fmt.Errorf("xsbench: lookups %d and threads %d must be positive", lookups, threads)
	}
	if threads > lookups {
		threads = lookups
	}
	sums := make([]float64, threads)
	probes := make([]int64, threads)
	errs := make([]error, threads)
	var wg sync.WaitGroup
	per := lookups / threads
	for t := 0; t < threads; t++ {
		n := per
		if t == threads-1 {
			n = lookups - per*(threads-1)
		}
		wg.Add(1)
		go func(t, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(t)*7919))
			for i := 0; i < n; i++ {
				macro, pr, err := g.Lookup(rng.Float64())
				if err != nil {
					errs[t] = err
					return
				}
				probes[t] += int64(pr)
				for _, v := range macro {
					sums[t] += v
				}
			}
		}(t, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	var sum float64
	var totalProbes int64
	for t := range sums {
		sum += sums[t]
		totalProbes += probes[t]
	}
	return sum / float64(lookups), totalProbes, nil
}
