package cache

import (
	"math"

	"repro/internal/knl"
	"repro/internal/units"
)

// This file is the analytic counterpart of the functional caches: hit
// ratios as closed-form functions of working set and capacity, used by
// the timing engine at paper-scale problem sizes.

// RandomHitRatio is the steady-state hit probability of uniform random
// accesses over a working set ws in a cache of the given capacity:
// the resident fraction, min(1, capacity/ws).
func RandomHitRatio(ws, capacity units.Bytes) float64 {
	if ws <= 0 {
		return 1
	}
	r := float64(capacity) / float64(ws)
	if r > 1 {
		return 1
	}
	return r
}

// RandomHitRatioSteep is RandomHitRatio sharpened by an exponent: the
// measured L2 hit probability of a loaded dual pointer chase falls
// faster than the resident fraction (pollution from the page walker
// and the second chase). Fig. 3's sharp 10 ns -> 200 ns transition
// between 1 MB and 4 MB calibrates the exponent (knl.Calibration.
// L2RandomExponent).
func RandomHitRatioSteep(ws, capacity units.Bytes, exponent float64) float64 {
	return math.Pow(RandomHitRatio(ws, capacity), exponent)
}

// DirectMappedStreamHitRatio is the analytic hit ratio of the MCDRAM
// direct-mapped memory-side cache for a streaming workload that reuses
// its working set across passes (STREAM, CG sweeps), as a function of
// r = workingSet/capacity.
//
// It interpolates the calibration anchors fitted to Fig. 2 (see
// knl.Calibration.CacheModeHitRatioAnchors). Below the first anchor it
// is flat; past the last it decays toward zero.
func DirectMappedStreamHitRatio(ws, capacity units.Bytes, anchors []knl.HitAnchor) float64 {
	if capacity <= 0 || len(anchors) == 0 {
		return 0
	}
	r := float64(ws) / float64(capacity)
	if r <= anchors[0].Ratio {
		return anchors[0].Hit
	}
	for i := 1; i < len(anchors); i++ {
		if r <= anchors[i].Ratio {
			a, b := anchors[i-1], anchors[i]
			t := (r - a.Ratio) / (b.Ratio - a.Ratio)
			return a.Hit + t*(b.Hit-a.Hit)
		}
	}
	// Beyond the last anchor: exponential decay of the residual.
	last := anchors[len(anchors)-1]
	return last.Hit * math.Exp(-(r - last.Ratio))
}

// DirectMappedConflictHitRatio is the first-principles counterpart of
// DirectMappedStreamHitRatio for randomly-placed pages: with a working
// set of W bytes whose pages land uniformly over the physical address
// space, the probability that a given line is the sole occupant of its
// direct-mapped set is (1-1/S)^(L-1) ~ exp(-W/C). Lines that share a
// set thrash under streaming reuse and contribute no hits.
//
// The measured curve (the anchors) falls more steeply than this ideal
// because the real mapping is not perfectly uniform and the fill
// traffic itself evicts; the trace simulator sits between the two.
// Exposed for the cache-associativity ablation.
func DirectMappedConflictHitRatio(ws, capacity units.Bytes) float64 {
	if ws <= 0 {
		return 1
	}
	if capacity <= 0 {
		return 0
	}
	return math.Exp(-float64(ws) / float64(capacity))
}
