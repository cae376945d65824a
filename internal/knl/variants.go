package knl

import (
	"fmt"

	"repro/internal/units"
)

// This file provides the other second-generation Xeon Phi SKUs. The
// paper argues (§VI) that its conclusions "can be generalized to other
// heterogeneous memory systems with similar characteristics"; these
// presets, served by ChipForSKU, let the test suite check that the
// model's qualitative results are preserved when the machine changes.

// variant derives a chip from the 7210 baseline.
func variant(name string, cores, tiles int, clock float64, mcdramBW, ddrBW float64) ChipSpec {
	c := KNL7210()
	c.Name = name
	c.Cores = cores
	c.ActiveTiles = tiles
	c.ClockGHz = clock
	c.MCDRAM.PeakBW = units.GBps(mcdramBW)
	c.MCDRAM.EffSeqBW = units.GBps(mcdramBW * 430 / 450)
	c.DDR.PeakBW = units.GBps(ddrBW)
	c.DDR.EffSeqBW = units.GBps(ddrBW * 77 / 90)
	return c
}

// KNL7230 returns the 64-core 1.3 GHz SKU with faster DDR4-2400.
func KNL7230() ChipSpec {
	return variant("Intel Xeon Phi 7230 (KNL)", 64, 32, 1.3, 450, 102)
}

// KNL7250 returns the 68-core 1.4 GHz SKU (the Cori/Trinity part).
func KNL7250() ChipSpec {
	return variant("Intel Xeon Phi 7250 (KNL)", 68, 34, 1.4, 450, 102)
}

// KNL7290 returns the 72-core 1.5 GHz flagship.
func KNL7290() ChipSpec {
	return variant("Intel Xeon Phi 7290 (KNL)", 72, 36, 1.5, 450, 102)
}

// ChipForSKU selects a machine preset by marketing number. The empty
// string means the paper's 7210 testbed.
func ChipForSKU(sku string) (ChipSpec, error) {
	switch sku {
	case "7210", "":
		return KNL7210(), nil
	case "7230":
		return KNL7230(), nil
	case "7250":
		return KNL7250(), nil
	case "7290":
		return KNL7290(), nil
	}
	return ChipSpec{}, fmt.Errorf("knl: unknown SKU %q (7210|7230|7250|7290)", sku)
}
