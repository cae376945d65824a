package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Fatalf("Mean = %v, %v", m, err)
	}
}

func TestHarmonicMean(t *testing.T) {
	h, err := HarmonicMean([]float64{1, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-2) > 1e-12 {
		t.Fatalf("HarmonicMean = %v, want 2", h)
	}
	if _, err := HarmonicMean([]float64{1, 0}); err == nil {
		t.Fatal("expected error on nonpositive value")
	}
	if _, err := HarmonicMean(nil); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v %v %v", lo, hi, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
}

func TestHarmonicLEArithmeticProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) + 1 // strictly positive
		}
		h, err1 := HarmonicMean(xs)
		a, err2 := Mean(xs)
		if err1 != nil || err2 != nil {
			return false
		}
		// AM-HM inequality with FP slack.
		return h <= a*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}
