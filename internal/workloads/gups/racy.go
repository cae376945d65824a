package gups

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// RunRacy performs the update loop the way the reference HPCC
// benchmark actually runs it in its multithreaded variants: without
// synchronization, so that concurrent read-modify-write updates to
// the same word can race and lose XOR contributions. The spec
// tolerates up to 1% incorrect table entries; this implementation
// exists so the error-tolerance behaviour is reproducible too.
//
// Implementation note: Go forbids genuinely racy plain accesses, so
// the lost-update window is modelled faithfully with atomics — each
// update performs an atomic load followed by an atomic store (NOT a
// compare-and-swap), which is exactly the non-atomic read-modify-write
// structure of the C reference and loses updates under contention the
// same way, without being undefined behaviour in Go.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func RunRacy(logSize int, updates int64, threads int) ([]uint64, error) {
	if logSize < 4 || logSize > 34 {
		return nil, fmt.Errorf("gups: logSize %d out of [4,34]", logSize)
	}
	if updates <= 0 || threads <= 0 {
		return nil, fmt.Errorf("gups: updates %d and threads %d must be positive", updates, threads)
	}
	size := int64(1) << logSize
	table := make([]uint64, size)
	for i := range table {
		table[i] = uint64(i)
	}
	mask := uint64(size - 1)

	var wg sync.WaitGroup
	per := updates / int64(threads)
	for t := 0; t < threads; t++ {
		n := per
		if t == threads-1 {
			n = updates - per*int64(threads-1)
		}
		wg.Add(1)
		go func(id int, n int64) {
			defer wg.Done()
			x := StartingSeed(int64(id)*97 + 1)
			for i := int64(0); i < n; i++ {
				x = NextRandom(x)
				idx := x & mask
				// Load-XOR-store without atomicity of the pair: the
				// reference's racy update.
				old := atomic.LoadUint64(&table[idx])
				atomic.StoreUint64(&table[idx], old^x)
			}
		}(t, n)
	}
	wg.Wait()
	return table, nil
}
