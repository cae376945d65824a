// Package xsbench reimplements the XSBench proxy: the macroscopic
// cross-section lookup kernel of OpenMC. A lookup binary-searches the
// unionized energy grid, then gathers and interpolates the bounding
// cross-section pairs of every nuclide. The functional layer builds a
// real unionized grid and performs real lookups with verification;
// the model layer regenerates Fig. 4e and Fig. 6d.
package xsbench

import (
	"fmt"
	"math/rand"
	"sort"
)

// Standard "large" problem shape of the reference benchmark.
const (
	Isotopes = 355
	// XSKinds is the number of cross-section channels interpolated
	// per nuclide (total, elastic, absorption, fission, nu-fission).
	XSKinds = 5
)

// Grid is the unionized energy grid.
type Grid struct {
	Energies []float64 // sorted unionized energies, length G
	// Index[g*Isotopes+i] is the index into nuclide i's private grid
	// bounding Energies[g] from below.
	Index []int32
	// NuclideEnergies[i] is nuclide i's private sorted energy grid.
	NuclideEnergies [][]float64
	// XS[i][j*XSKinds+k] is channel k at private grid point j.
	XS [][]float64
}

// Build constructs a unionized grid with pointsPerIso private points
// per nuclide, deterministically from a seed.
//
//simd:oracle functional workload kernel listed in doc.go; its package tests and the root benchmarks run it
func Build(isotopes, pointsPerIso int, seed int64) (*Grid, error) {
	if isotopes < 1 || pointsPerIso < 2 {
		return nil, fmt.Errorf("xsbench: bad shape %d isotopes x %d points", isotopes, pointsPerIso)
	}
	rng := rand.New(rand.NewSource(seed))
	g := &Grid{
		NuclideEnergies: make([][]float64, isotopes),
		XS:              make([][]float64, isotopes),
	}
	total := isotopes * pointsPerIso
	g.Energies = make([]float64, 0, total)
	for i := 0; i < isotopes; i++ {
		e := make([]float64, pointsPerIso)
		for j := range e {
			e[j] = rng.Float64()
		}
		sort.Float64s(e)
		g.NuclideEnergies[i] = e
		xs := make([]float64, pointsPerIso*XSKinds)
		for j := range xs {
			xs[j] = rng.Float64()
		}
		g.XS[i] = xs
		g.Energies = append(g.Energies, e...)
	}
	sort.Float64s(g.Energies)
	// Build the unionized index: for each unionized point and
	// isotope, the bounding private index.
	g.Index = make([]int32, len(g.Energies)*isotopes)
	for i := 0; i < isotopes; i++ {
		e := g.NuclideEnergies[i]
		k := 0
		for gi, ue := range g.Energies {
			for k+1 < len(e) && e[k+1] <= ue {
				k++
			}
			g.Index[gi*isotopes+i] = int32(k)
		}
	}
	return g, nil
}

// searchUnionized binary-searches the unionized grid for energy e and
// returns the bounding index and the number of probes performed (the
// dependent-load chain the model charges).
func (g *Grid) searchUnionized(e float64) (int, int) {
	lo, hi := 0, len(g.Energies)-1
	probes := 0
	for lo < hi {
		mid := (lo + hi + 1) / 2
		probes++
		if g.Energies[mid] <= e {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, probes
}

// Lookup computes the macroscopic cross section for energy e in (0,1)
// with uniform number densities: for every isotope, interpolate each
// XS channel between the bounding private grid points and accumulate.
// It returns the XSKinds accumulated channels and the probe count.
func (g *Grid) Lookup(e float64) ([XSKinds]float64, int, error) {
	var macro [XSKinds]float64
	if e < 0 || e >= 1 {
		return macro, 0, fmt.Errorf("xsbench: energy %v out of [0,1)", e)
	}
	gi, probes := g.searchUnionized(e)
	iso := len(g.NuclideEnergies)
	for i := 0; i < iso; i++ {
		idx := int(g.Index[gi*iso+i])
		eGrid := g.NuclideEnergies[i]
		hiIdx := idx + 1
		if hiIdx >= len(eGrid) {
			hiIdx = idx
		}
		e0, e1 := eGrid[idx], eGrid[hiIdx]
		f := 0.0
		if e1 > e0 {
			f = (e - e0) / (e1 - e0)
			if f < 0 {
				f = 0
			}
			if f > 1 {
				f = 1
			}
		}
		lo := g.XS[i][idx*XSKinds : idx*XSKinds+XSKinds]
		hi := g.XS[i][hiIdx*XSKinds : hiIdx*XSKinds+XSKinds]
		for k := 0; k < XSKinds; k++ {
			macro[k] += lo[k] + f*(hi[k]-lo[k])
		}
	}
	return macro, probes, nil
}
