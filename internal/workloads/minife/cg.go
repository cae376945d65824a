package minife

import (
	"errors"
	"fmt"
	"math"
)

// CGResult reports a conjugate-gradient solve.
type CGResult struct {
	Iterations int
	Residual   float64
	Flops      float64
}

// ErrNoConvergence is returned when CG hits the iteration cap.
var ErrNoConvergence = errors.New("minife: CG did not converge")

// dot computes the inner product.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// axpy computes y += alpha*x.
func axpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// CG solves A x = b to relative residual tol with at most maxIter
// iterations, overwriting x (x may start at zero). This mirrors
// MiniFE's unpreconditioned CG.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func CG(a *CSR, b, x []float64, tol float64, maxIter int) (CGResult, error) {
	n := a.N
	if len(b) != n || len(x) != n {
		return CGResult{}, fmt.Errorf("minife: cg vector lengths %d/%d for n=%d", len(b), len(x), n)
	}
	if maxIter <= 0 {
		return CGResult{}, fmt.Errorf("minife: maxIter %d must be positive", maxIter)
	}
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	// r = b - A x.
	if err := a.SpMV(x, ap); err != nil {
		return CGResult{}, err
	}
	for i := range r {
		r[i] = b[i] - ap[i]
		p[i] = r[i]
	}
	rr := dot(r, r)
	bnorm := math.Sqrt(dot(b, b))
	if bnorm == 0 {
		bnorm = 1
	}
	var flops float64
	res := CGResult{}
	for k := 0; k < maxIter; k++ {
		if math.Sqrt(rr)/bnorm <= tol {
			res.Iterations = k
			res.Residual = math.Sqrt(rr) / bnorm
			res.Flops = flops
			return res, nil
		}
		if err := a.SpMV(p, ap); err != nil {
			return CGResult{}, err
		}
		pap := dot(p, ap)
		if pap <= 0 {
			return CGResult{}, fmt.Errorf("minife: matrix not positive definite (pAp=%v)", pap)
		}
		alpha := rr / pap
		axpy(alpha, p, x)
		axpy(-alpha, ap, r)
		rrNew := dot(r, r)
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
		flops += 2*float64(a.NNZ()) + 10*float64(n)
	}
	res.Iterations = maxIter
	res.Residual = math.Sqrt(rr) / bnorm
	res.Flops = flops
	return res, ErrNoConvergence
}
