package knl

import "testing"

func TestVariantsAreValid(t *testing.T) {
	for _, c := range []ChipSpec{KNL7210(), KNL7230(), KNL7250(), KNL7290()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestVariantFacts(t *testing.T) {
	if c := KNL7250(); c.Cores != 68 || c.MaxThreads() != 272 {
		t.Errorf("7250: %d cores, %d threads", c.Cores, c.MaxThreads())
	}
	if c := KNL7290(); c.Cores != 72 || c.ClockGHz != 1.5 {
		t.Errorf("7290: %d cores at %.1f GHz", c.Cores, c.ClockGHz)
	}
	// The 7230's DDR4-2400 is faster than the 7210's 2133.
	if KNL7230().DDR.PeakBW <= KNL7210().DDR.PeakBW {
		t.Error("7230 DDR should be faster than 7210")
	}
	// Peak flops grow with cores x clock.
	if KNL7290().PeakGFLOPS() <= KNL7210().PeakGFLOPS() {
		t.Error("7290 peak should exceed 7210")
	}
}
