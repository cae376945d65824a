package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernel identifies one of the four STREAM kernels. The paper reports
// triad; the full set is provided for completeness and for the trace
// simulator's traffic-mix experiments.
type Kernel int

const (
	// Copy: a[i] = c[i]
	Copy Kernel = iota
	// Scale: a[i] = s*c[i]
	Scale
	// Add: a[i] = b[i] + c[i]
	Add
	// TriadKernel: a[i] = b[i] + s*c[i]
	TriadKernel
)

// String names the kernel as STREAM does.
func (k Kernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case TriadKernel:
		return "Triad"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// BytesPerElement returns the STREAM-counted traffic per element
// (reads + writes, 8 B each; no write-allocate with streaming stores).
func (k Kernel) BytesPerElement() int64 {
	switch k {
	case Copy, Scale:
		return 16 // 1 read + 1 write
	default:
		return 24 // 2 reads + 1 write
	}
}

// Run executes one kernel over the arrays with the given thread count
// and returns the STREAM-counted bytes moved.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func Run(k Kernel, a, b, c []float64, scalar float64, threads int) (int64, error) {
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
	// Chunk boundaries follow the logical thread count (each element
	// is written exactly once, so results are partition-independent),
	// but no more goroutines are spawned than can actually run: extra
	// ones only add scheduling overhead.
	chunk := (n + threads - 1) / threads
	workers := threads
	if p := runtime.GOMAXPROCS(0); workers > p {
		workers = p
	}
	var wg sync.WaitGroup
	var next int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(atomic.AddInt64(&next, 1)) - 1
				lo := t * chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				runChunk(k, a[lo:hi], b[lo:hi], c[lo:hi], scalar)
			}
		}()
	}
	wg.Wait()
	return int64(n) * k.BytesPerElement(), nil
}

// runChunk executes one kernel over aligned sub-slices. The loops are
// four-way unrolled with slice-length hints so the compiler drops the
// bounds checks.
func runChunk(k Kernel, a, b, c []float64, scalar float64) {
	switch k {
	case Copy:
		copy(a, c)
	case Scale:
		c = c[:len(a)]
		i := 0
		for ; i+3 < len(a); i += 4 {
			a[i] = scalar * c[i]
			a[i+1] = scalar * c[i+1]
			a[i+2] = scalar * c[i+2]
			a[i+3] = scalar * c[i+3]
		}
		for ; i < len(a); i++ {
			a[i] = scalar * c[i]
		}
	case Add:
		b = b[:len(a)]
		c = c[:len(a)]
		i := 0
		for ; i+3 < len(a); i += 4 {
			a[i] = b[i] + c[i]
			a[i+1] = b[i+1] + c[i+1]
			a[i+2] = b[i+2] + c[i+2]
			a[i+3] = b[i+3] + c[i+3]
		}
		for ; i < len(a); i++ {
			a[i] = b[i] + c[i]
		}
	default:
		b = b[:len(a)]
		c = c[:len(a)]
		i := 0
		for ; i+3 < len(a); i += 4 {
			a[i] = b[i] + scalar*c[i]
			a[i+1] = b[i+1] + scalar*c[i+1]
			a[i+2] = b[i+2] + scalar*c[i+2]
			a[i+3] = b[i+3] + scalar*c[i+3]
		}
		for ; i < len(a); i++ {
			a[i] = b[i] + scalar*c[i]
		}
	}
}
