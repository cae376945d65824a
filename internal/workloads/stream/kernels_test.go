package stream

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/units"
)

func engineDefault() *engine.Machine { return engine.Default() }
func engineHBM() engine.MemoryConfig { return engine.HBM }
func gb8() units.Bytes               { return units.GB(8) }

func TestKernelMetadata(t *testing.T) {
	cases := []struct {
		k     Kernel
		name  string
		bytes int64
		flops int64
	}{
		{Copy, "Copy", 16, 0},
		{Scale, "Scale", 16, 1},
		{Add, "Add", 24, 1},
		{TriadKernel, "Triad", 24, 2},
	}
	for _, c := range cases {
		if c.k.String() != c.name {
			t.Errorf("%v name = %q", c.k, c.k.String())
		}
		if c.k.BytesPerElement() != c.bytes {
			t.Errorf("%v bytes = %d, want %d", c.k, c.k.BytesPerElement(), c.bytes)
		}
		if c.k.FlopsPerElement() != c.flops {
			t.Errorf("%v flops = %d, want %d", c.k, c.k.FlopsPerElement(), c.flops)
		}
	}
	if Kernel(9).String() != "Kernel(9)" {
		t.Error("unknown kernel formatting")
	}
	if len(Kernels()) != 4 {
		t.Error("STREAM has four kernels")
	}
}

func TestRunAllKernels(t *testing.T) {
	n := 513
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = float64(2 * i)
	}
	scalar := 3.0

	for _, k := range Kernels() {
		bytes, err := Run(k, a, b, c, scalar, 4)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if bytes != int64(n)*k.BytesPerElement() {
			t.Errorf("%v bytes = %d", k, bytes)
		}
		for i := range a {
			var want float64
			switch k {
			case Copy:
				want = c[i]
			case Scale:
				want = scalar * c[i]
			case Add:
				want = b[i] + c[i]
			default:
				want = b[i] + scalar*c[i]
			}
			if a[i] != want {
				t.Fatalf("%v: a[%d] = %v, want %v", k, i, a[i], want)
			}
		}
	}
}

func TestPredictKernel(t *testing.T) {
	m := engineDefault()
	mdl := Model{}
	for _, k := range Kernels() {
		v, err := mdl.PredictKernel(m, engineHBM(), k, gb8(), 64)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		// All four kernels see the same device bandwidth (modulo the
		// small-size damping, negligible at 8 GB).
		if v < 305 || v > 345 {
			t.Errorf("%v = %.0f GB/s, want ~330", k, v)
		}
	}
	// Triad via Predict equals PredictKernel(TriadKernel).
	a, _ := mdl.Predict(m, engineHBM(), gb8(), 64)
	b, _ := mdl.PredictKernel(m, engineHBM(), TriadKernel, gb8(), 64)
	if a != b {
		t.Error("Predict and PredictKernel(Triad) disagree")
	}
}

func TestRunKernelErrors(t *testing.T) {
	if _, err := Run(Copy, make([]float64, 2), make([]float64, 3), make([]float64, 2), 1, 1); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := Run(Copy, nil, nil, nil, 1, 0); err == nil {
		t.Error("zero threads accepted")
	}
}

// FlopsPerElement returns the arithmetic per element.
func (k Kernel) FlopsPerElement() int64 {
	switch k {
	case Copy:
		return 0
	case Scale, Add:
		return 1
	default:
		return 2
	}
}

// Kernels returns all four kernels in STREAM order.
func Kernels() []Kernel { return []Kernel{Copy, Scale, Add, TriadKernel} }
