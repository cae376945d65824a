package engine

import (
	"fmt"

	"repro/internal/knl"
	"repro/internal/numa"
	"repro/internal/units"
)

// Machine is a configured simulated node. The on-die mesh cost of a
// miss is folded into the chip's calibrated dual-read plateaus.
type Machine struct {
	Chip knl.ChipSpec
}

// NewMachine builds a machine from a chip spec.
func NewMachine(chip knl.ChipSpec) (*Machine, error) {
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	return &Machine{Chip: chip}, nil
}

// Default returns the KNL 7210 testbed machine, panicking on internal
// inconsistency (the preset is a compile-time constant, so failure is
// a programming error).
func Default() *Machine {
	m, err := NewMachine(knl.KNL7210())
	if err != nil {
		panic(fmt.Sprintf("engine: invalid KNL7210 preset: %v", err))
	}
	return m
}

// Capacity returns the allocatable capacity of a configuration.
func (m *Machine) Capacity(cfg MemoryConfig) units.Bytes {
	switch cfg.Kind {
	case BindDRAM, CacheMode:
		return m.Chip.DDR.Capacity
	case BindHBM:
		return m.Chip.MCDRAM.Capacity
	case InterleaveFlat:
		return m.Chip.DDR.Capacity + m.Chip.MCDRAM.Capacity
	case Hybrid:
		flat := units.Bytes(float64(m.Chip.MCDRAM.Capacity) * cfg.HybridFlatFraction)
		return m.Chip.DDR.Capacity + flat
	}
	return 0
}

// CheckFit returns ErrDoesNotFit when ws exceeds the configuration's
// capacity.
func (m *Machine) CheckFit(cfg MemoryConfig, ws units.Bytes) error {
	if have := m.Capacity(cfg); ws > have {
		return ErrDoesNotFit{Config: cfg, Need: ws, Have: have}
	}
	return nil
}

// NUMATopology returns the OS topology a configuration exposes.
func (m *Machine) NUMATopology(cfg MemoryConfig) (*numa.Topology, error) {
	switch cfg.Kind {
	case CacheMode:
		return numa.NewTopology(m.Chip.DDR, m.Chip.MCDRAM, numa.CacheMode, 0)
	case Hybrid:
		return numa.NewTopology(m.Chip.DDR, m.Chip.MCDRAM, numa.HybridMode, cfg.HybridFlatFraction)
	default:
		return numa.NewTopology(m.Chip.DDR, m.Chip.MCDRAM, numa.FlatMode, 0)
	}
}

// IdleLatencies returns the unloaded pointer-chase latencies of the
// two devices (the §IV-A "154.0 ns HBM / 130.4 ns DRAM" experiment).
func (m *Machine) IdleLatencies() (dram, hbm units.Nanoseconds) {
	return m.Chip.DDR.IdleLatency, m.Chip.MCDRAM.IdleLatency
}
