package dgemm

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/units"
	"repro/internal/workload"
)

func naive(a, b []float64, n int) []float64 {
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			aik := a[i*n+k]
			for j := 0; j < n; j++ {
				c[i*n+j] += aik * b[k*n+j]
			}
		}
	}
	return c
}

func TestMultiplyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 7, 64, 100, 130} {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Float64()
			b[i] = rng.Float64()
		}
		c := make([]float64, n*n)
		if err := Multiply(a, b, c, n, 4); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := naive(a, b, n)
		for i := range c {
			if math.Abs(c[i]-want[i]) > 1e-9*math.Abs(want[i])+1e-12 {
				t.Fatalf("n=%d: c[%d] = %v, want %v", n, i, c[i], want[i])
			}
		}
	}
}

func TestMultiplyErrors(t *testing.T) {
	if err := Multiply(nil, nil, nil, 0, 1); err == nil {
		t.Error("zero dimension accepted")
	}
	if err := Multiply(make([]float64, 4), make([]float64, 4), make([]float64, 3), 2, 1); err == nil {
		t.Error("short C accepted")
	}
	if err := Multiply(make([]float64, 4), make([]float64, 4), make([]float64, 4), 2, 0); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestMultiplyThreadInvariance(t *testing.T) {
	n := 65
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = rng.Float64()
		b[i] = rng.Float64()
	}
	c1 := make([]float64, n*n)
	c8 := make([]float64, n*n)
	if err := Multiply(a, b, c1, n, 1); err != nil {
		t.Fatal(err)
	}
	if err := Multiply(a, b, c8, n, 8); err != nil {
		t.Fatal(err)
	}
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Fatalf("thread count changed result at %d", i)
		}
	}
}

func TestMatrixDimRoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%4096) + 64
		size := units.Bytes(int64(n) * int64(n) * 24) // three n x n float64 matrices
		got := MatrixDim(size)
		return got == n || got == n-1 // sqrt truncation slack
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if MatrixDim(units.GB(24)) < 32000 || MatrixDim(units.GB(24)) > 33500 {
		t.Errorf("24 GB => n = %d, want ~32768", MatrixDim(units.GB(24)))
	}
}

func TestModelFig4aShape(t *testing.T) {
	m := engine.Default()
	mdl := Model{}

	// HBM beats DRAM ~2x at the 6 GB point.
	d, err := mdl.Predict(m, engine.DRAM, units.GB(6), 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := mdl.Predict(m, engine.HBM, units.GB(6), 64)
	if err != nil {
		t.Fatal(err)
	}
	if r := h / d; r < 1.6 || r > 2.6 {
		t.Errorf("HBM/DRAM at 6 GB = %.2f, want ~2x", r)
	}
	// Absolute: ~600 GFLOPS territory on HBM at scale.
	if h < 400 || h > 700 {
		t.Errorf("HBM GFLOPS = %.0f, want ~500-600", h)
	}
	// GFLOPS grows with size (both configs).
	sizes := mdl.PaperSizes()
	prevD := 0.0
	for _, s := range sizes {
		v, err := mdl.Predict(m, engine.DRAM, s, 64)
		if err != nil {
			t.Fatal(err)
		}
		if v < prevD {
			t.Errorf("DRAM GFLOPS fell at %v: %v < %v", s, v, prevD)
		}
		prevD = v
	}
	// No HBM bar at 24 GB.
	if _, err := mdl.Predict(m, engine.HBM, units.GB(24), 64); err == nil {
		t.Error("24 GB should not fit HBM")
	}
	// Cache mode keeps a large-size advantage (blocked reuse window).
	c, err := mdl.Predict(m, engine.Cache, units.GB(24), 64)
	if err != nil {
		t.Fatal(err)
	}
	d24, _ := mdl.Predict(m, engine.DRAM, units.GB(24), 64)
	if r := c / d24; r < 1.5 || r > 2.6 {
		t.Errorf("cache speedup at 24 GB = %.2f, want ~2x", r)
	}
}

func TestModelFig6aThreads(t *testing.T) {
	m := engine.Default()
	mdl := Model{}
	size := mdl.Fig6Size()

	h64, _ := mdl.Predict(m, engine.HBM, size, 64)
	h192, _ := mdl.Predict(m, engine.HBM, size, 192)
	if r := h192 / h64; r < 1.5 || r > 1.9 {
		t.Errorf("HBM 192/64 = %.2f, want ~1.7 (paper)", r)
	}
	// DRAM does not benefit from hyper-threading.
	d64, _ := mdl.Predict(m, engine.DRAM, size, 64)
	d192, _ := mdl.Predict(m, engine.DRAM, size, 192)
	if r := d192 / d64; r > 1.15 {
		t.Errorf("DRAM 192/64 = %.2f, should be ~1", r)
	}
	// 256 threads: the run fails, as in the paper.
	if _, err := mdl.Predict(m, engine.HBM, size, 256); !errors.Is(err, workload.ErrNotMeasured) {
		t.Errorf("256 threads should be ErrNotMeasured, got %v", err)
	}
}

func TestModelInfo(t *testing.T) {
	info := Model{}.Info()
	if info.Name != "DGEMM" || info.Pattern != workload.PatternSequential ||
		info.Class != workload.ClassScientific || info.MaxScale != units.GB(24) {
		t.Errorf("Table I row wrong: %+v", info)
	}
	if len(Model{}.PaperSizes()) != 5 {
		t.Error("Fig. 4a has 5 sizes")
	}
}

// TestAxpy4MatchesScalar pins the dispatching kernel (FMA assembly on
// CPUs that have it, portable Go elsewhere) against a plain scalar
// reference across lengths that exercise the 8-wide loop, the 4-wide
// step, and the scalar tail.
func TestAxpy4MatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64, 100} {
		c := make([]float64, n)
		want := make([]float64, n)
		b0 := make([]float64, n)
		b1 := make([]float64, n)
		b2 := make([]float64, n)
		b3 := make([]float64, n)
		for j := 0; j < n; j++ {
			c[j] = float64(j%11) - 5
			want[j] = c[j]
			b0[j] = float64(j%7) * 0.5
			b1[j] = float64(j%13) * -0.25
			b2[j] = float64(j % 3)
			b3[j] = float64(j%17) * 1.5
		}
		a0, a1, a2, a3 := 1.25, -2.5, 0.75, 3.0
		axpy4(c, b0, b1, b2, b3, a0, a1, a2, a3)
		for j := 0; j < n; j++ {
			want[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			if math.Abs(c[j]-want[j]) > 1e-12*math.Abs(want[j])+1e-15 {
				t.Fatalf("n=%d j=%d: got %v want %v", n, j, c[j], want[j])
			}
		}
	}
}
