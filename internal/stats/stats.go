// Package stats provides the small statistical helpers the benchmark
// harness needs: arithmetic and harmonic means and min/max. Graph500
// reports the harmonic mean of TEPS across BFS roots, so that one
// matters for fidelity to the reference benchmark.
package stats

import "errors"

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// HarmonicMean returns the harmonic mean. All values must be positive;
// Graph500 defines its headline TEPS metric this way.
func HarmonicMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: harmonic mean requires positive values")
		}
		s += 1 / x
	}
	return float64(len(xs)) / s, nil
}

// MinMax returns the smallest and largest values.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}
