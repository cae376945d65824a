package minife

import (
	"fmt"
	"math"
	"sync"
)

// ParSpMV computes y = A*x with row-parallel goroutines (the
// OpenMP-style parallelization MiniFE uses).
func (m *CSR) ParSpMV(x, y []float64, threads int) error {
	if len(x) != m.N || len(y) != m.N {
		return fmt.Errorf("minife: spmv vector lengths %d/%d for n=%d", len(x), len(y), m.N)
	}
	if threads <= 0 {
		return fmt.Errorf("minife: thread count %d must be positive", threads)
	}
	if threads > m.N && m.N > 0 {
		threads = m.N
	}
	var wg sync.WaitGroup
	chunk := (m.N + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if hi > m.N {
			hi = m.N
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				sum := 0.0
				for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
					sum += m.Values[k] * x[m.ColIdx[k]]
				}
				y[i] = sum
			}
		}(lo, hi)
	}
	wg.Wait()
	return nil
}

// parDot computes an inner product with a parallel reduction.
func parDot(a, b []float64, threads int) float64 {
	n := len(a)
	if threads > n {
		threads = n
	}
	if threads <= 1 {
		return dot(a, b)
	}
	partial := make([]float64, threads)
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
		go func(t, lo, hi int) {
			defer wg.Done()
			s := 0.0
			for i := lo; i < hi; i++ {
				s += a[i] * b[i]
			}
			partial[t] = s
		}(t, lo, hi)
	}
	wg.Wait()
	s := 0.0
	for _, p := range partial {
		s += p
	}
	return s
}

// ParCG is the thread-parallel conjugate gradient used by the larger
// functional runs. Numerically it performs the same iteration as CG;
// the parallel dot reduction may round differently, so results agree
// to solver tolerance rather than bitwise.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func ParCG(a *CSR, b, x []float64, tol float64, maxIter, threads int) (CGResult, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		return CGResult{}, fmt.Errorf("minife: cg vector lengths %d/%d for n=%d", len(b), len(x), n)
	}
	if maxIter <= 0 || threads <= 0 {
		return CGResult{}, fmt.Errorf("minife: maxIter %d and threads %d must be positive", maxIter, threads)
	}
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	if err := a.ParSpMV(x, ap, threads); err != nil {
		return CGResult{}, err
	}
	for i := range r {
		r[i] = b[i] - ap[i]
		p[i] = r[i]
	}
	rr := parDot(r, r, threads)
	bnorm := sqrt(parDot(b, b, threads))
	if bnorm == 0 {
		bnorm = 1
	}
	var flops float64
	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		if sqrt(rr)/bnorm <= tol {
			res.Iterations = k
			res.Residual = sqrt(rr) / bnorm
			res.Flops = flops
			return res, nil
		}
		if err := a.ParSpMV(p, ap, threads); err != nil {
			return CGResult{}, err
		}
		pap := parDot(p, ap, threads)
		if pap <= 0 {
			return CGResult{}, fmt.Errorf("minife: matrix not positive definite (pAp=%v)", pap)
		}
		alpha := rr / pap
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
		rrNew := parDot(r, r, threads)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		flops += 2*float64(a.NNZ()) + 10*float64(n)
	}
	res.Iterations = maxIter
	res.Residual = sqrt(rr) / bnorm
	res.Flops = flops
	return res, ErrNoConvergence
}

func sqrt(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Sqrt(x)
}
