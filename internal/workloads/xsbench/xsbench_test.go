package xsbench

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestBuildGrid(t *testing.T) {
	g, err := Build(5, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Points() != 50 {
		t.Fatalf("unionized points = %d, want 50", g.Points())
	}
	// Unionized energies must be sorted.
	for i := 1; i < len(g.Energies); i++ {
		if g.Energies[i] < g.Energies[i-1] {
			t.Fatal("unionized grid not sorted")
		}
	}
	// Every index entry bounds the unionized energy from below.
	for gi, ue := range g.Energies {
		for iso := 0; iso < 5; iso++ {
			idx := int(g.Index[gi*5+iso])
			e := g.NuclideEnergies[iso]
			if e[idx] > ue && idx > 0 {
				t.Fatalf("index (%d,%d): private %v above unionized %v", gi, iso, e[idx], ue)
			}
			if idx+1 < len(e) && e[idx+1] <= ue {
				t.Fatalf("index (%d,%d) not tight", gi, iso)
			}
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(0, 10, 1); err == nil {
		t.Error("zero isotopes accepted")
	}
	if _, err := Build(5, 1, 1); err == nil {
		t.Error("single grid point accepted")
	}
}

func TestSearchUnionizedProperty(t *testing.T) {
	g, err := Build(3, 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		e := float64(raw) / 65536.0
		idx, probes := g.searchUnionized(e)
		if probes <= 0 || probes > 8 { // log2(96) < 7
			return false
		}
		if idx < 0 || idx >= g.Points() {
			return false
		}
		if g.Energies[idx] > e && idx > 0 {
			return false
		}
		return idx+1 >= g.Points() || g.Energies[idx+1] > e || g.Energies[idx] <= e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLookupBoundsAndDeterminism(t *testing.T) {
	g, _ := Build(10, 20, 3)
	macro, probes, err := g.Lookup(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if probes <= 0 {
		t.Fatal("no search probes")
	}
	// Each accumulated channel is a sum of 10 interpolations of
	// values in [0,1): bounded by isotope count.
	for k, v := range macro {
		if v < 0 || v > 10 {
			t.Fatalf("channel %d = %v out of [0,10]", k, v)
		}
	}
	again, _, _ := g.Lookup(0.5)
	if macro != again {
		t.Fatal("lookup not deterministic")
	}
	if _, _, err := g.Lookup(1.5); err == nil {
		t.Error("out-of-range energy accepted")
	}
}

func TestLookupInterpolationExact(t *testing.T) {
	// At a private grid energy the interpolation must return the
	// stored value exactly (f = 0).
	g, _ := Build(1, 8, 5)
	e := g.NuclideEnergies[0][3]
	macro, _, err := g.Lookup(e)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < XSKinds; k++ {
		want := g.XS[0][3*XSKinds+k]
		if math.Abs(macro[k]-want) > 1e-12 {
			t.Fatalf("channel %d = %v, want stored %v", k, macro[k], want)
		}
	}
}

func TestVerificationHash(t *testing.T) {
	g, _ := Build(5, 16, 2)
	h1, err := g.VerificationHash(100, 7)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := g.VerificationHash(100, 7)
	if h1 != h2 {
		t.Fatal("verification hash not reproducible")
	}
	h3, _ := g.VerificationHash(100, 8)
	if h1 == h3 {
		t.Fatal("different seeds produced identical hash")
	}
	if _, err := g.VerificationHash(0, 1); err == nil {
		t.Error("zero lookups accepted")
	}
}

func TestModelFig4eShape(t *testing.T) {
	m := engine.Default()
	mdl := Model{}

	// 64 threads: DRAM best, lookups/s in the paper's ~2-3e6 band.
	for _, s := range mdl.PaperSizes() {
		d, err := mdl.Predict(m, engine.DRAM, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if d < 1.4e6 || d > 3.5e6 {
			t.Errorf("size %v: DRAM = %.3g, want ~2-3e6", s, d)
		}
		if h, err := mdl.Predict(m, engine.HBM, s, 64); err == nil && h > d {
			t.Errorf("size %v: HBM (%.3g) above DRAM (%.3g) at 64 threads", s, h, d)
		}
	}
	// Declines with problem size.
	small, _ := mdl.Predict(m, engine.DRAM, units.GB(5.6), 64)
	large, _ := mdl.Predict(m, engine.DRAM, units.GB(90), 64)
	if small <= large {
		t.Error("lookups/s should decline with problem size")
	}
	// Only DRAM and cache can hold 90 GB... in fact only DRAM.
	if _, err := mdl.Predict(m, engine.HBM, units.GB(90), 64); err == nil {
		t.Error("90 GB should not fit HBM")
	}
}

func TestModelFig6dCrossover(t *testing.T) {
	m := engine.Default()
	mdl := Model{}
	size := mdl.Fig6Size()

	d64, _ := mdl.Predict(m, engine.DRAM, size, 64)
	h64, _ := mdl.Predict(m, engine.HBM, size, 64)
	if h64 > d64 {
		t.Errorf("64 threads: HBM (%.3g) should trail DRAM (%.3g)", h64, d64)
	}

	// The paper's crossover: with hyper-threading HBM (and cache
	// mode) overtake DRAM decisively.
	d256, _ := mdl.Predict(m, engine.DRAM, size, 256)
	h256, _ := mdl.Predict(m, engine.HBM, size, 256)
	c256, _ := mdl.Predict(m, engine.Cache, size, 256)
	if h256 <= d256 {
		t.Errorf("256 threads: HBM (%.3g) should beat DRAM (%.3g)", h256, d256)
	}
	if r := h256 / h64; r < 2.2 || r > 3.5 {
		t.Errorf("HBM 256/64 = %.2f, want ~2.5-3x", r)
	}
	if r := d256 / d64; r < 1.2 || r > 1.8 {
		t.Errorf("DRAM 256/64 = %.2f, want ~1.5x", r)
	}
	// "XSBench reaches the highest performance by using 256 threads
	// in HBM and in cache mode."
	if math.Abs(c256-h256)/h256 > 0.15 {
		t.Errorf("cache (%.3g) should track HBM (%.3g) at 256 threads", c256, h256)
	}
	// Monotone improvement with threads on HBM (Fig. 6d trend).
	prev := 0.0
	for _, th := range workload.PaperThreads() {
		v, err := mdl.Predict(m, engine.HBM, size, th)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev {
			t.Errorf("HBM lookups/s fell at %d threads", th)
		}
		prev = v
	}
}

func TestGridPointsRoundTrip(t *testing.T) {
	if GridPoints(units.GB(5.6)) < 3_500_000 || GridPoints(units.GB(5.6)) > 4_500_000 {
		t.Errorf("5.6 GB => %d points, want ~4M (reference 'large')", GridPoints(units.GB(5.6)))
	}
	if units.Bytes(GridPoints(units.GB(5.6))*bytesPerGridPoint) > units.GB(5.6) {
		t.Error("round trip grew")
	}
}

func TestModelInfo(t *testing.T) {
	info := Model{}.Info()
	if info.Name != "XSBench" || info.MaxScale != units.GB(90) ||
		info.Pattern != workload.PatternRandom || info.Class != workload.ClassScientific {
		t.Errorf("Table I row wrong: %+v", info)
	}
	if len(Model{}.PaperSizes()) != 5 {
		t.Error("Fig. 4e has 5 sizes")
	}
}

// VerificationHash reduces a sequence of lookups to a stable checksum,
// mirroring the reference benchmark's verification mode.
func (g *Grid) VerificationHash(lookups int, seed int64) (float64, error) {
	if lookups <= 0 {
		return 0, fmt.Errorf("xsbench: lookup count %d must be positive", lookups)
	}
	rng := rand.New(rand.NewSource(seed))
	sum := 0.0
	for l := 0; l < lookups; l++ {
		macro, _, err := g.Lookup(rng.Float64())
		if err != nil {
			return 0, err
		}
		for _, v := range macro {
			sum += v
		}
	}
	return sum / float64(lookups), nil
}

// Points returns the unionized grid size.
func (g *Grid) Points() int { return len(g.Energies) }
