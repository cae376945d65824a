// Package mem models the two memory technologies of a hybrid memory
// node: conventional DDR DRAM and on-package 3D-stacked MCDRAM (HBM).
//
// Each device is described by a DeviceSpec holding capacity, channel
// count, idle latency, and peak/effective bandwidth. On top of the
// spec the package implements the bandwidth–latency–concurrency model
// the paper uses to explain its results (§IV-B, Little's Law):
//
//	throughput = outstanding requests / latency
//
// with a two-regime closure: below saturation the device serves the
// demanded bandwidth at (mildly loaded) latency; at saturation the
// bandwidth pins to the effective peak and latency inflates so that
// Little's Law still holds for the offered concurrency.
package mem

import (
	"fmt"

	"repro/internal/units"
)

// Kind identifies a memory technology.
type Kind int

const (
	// DDR is conventional off-package DRAM (six DDR4 channels on KNL).
	DDR Kind = iota
	// MCDRAM is the on-package 3D-stacked high-bandwidth memory.
	MCDRAM
)

// String returns the conventional name for the technology.
func (k Kind) String() string {
	switch k {
	case DDR:
		return "DRAM"
	case MCDRAM:
		return "MCDRAM"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DeviceSpec describes one memory device.
type DeviceSpec struct {
	Kind     Kind
	Capacity units.Bytes
	Channels int

	// IdleLatency is the unloaded access latency measured by a
	// dependent-load pointer chase (130.4 ns DDR4, 154.0 ns MCDRAM on
	// the paper's testbed).
	IdleLatency units.Nanoseconds

	// PeakBW is the pin bandwidth (~90 GB/s DDR, ~400+ GB/s MCDRAM).
	PeakBW units.BytesPerNS

	// EffSeqBW is the maximum bandwidth achievable by a well-formed
	// sequential stream with unbounded concurrency (77 GB/s DDR,
	// ~430 GB/s MCDRAM per the paper's STREAM measurements).
	EffSeqBW units.BytesPerNS
}

// Validate reports an error if the spec is internally inconsistent.
func (d DeviceSpec) Validate() error {
	switch {
	case d.Capacity <= 0:
		return fmt.Errorf("mem: %s capacity must be positive, got %v", d.Kind, d.Capacity)
	case d.Channels <= 0:
		return fmt.Errorf("mem: %s channel count must be positive, got %d", d.Kind, d.Channels)
	case d.IdleLatency <= 0:
		return fmt.Errorf("mem: %s idle latency must be positive, got %v", d.Kind, d.IdleLatency)
	case d.PeakBW <= 0 || d.EffSeqBW <= 0:
		return fmt.Errorf("mem: %s bandwidths must be positive", d.Kind)
	case d.EffSeqBW > d.PeakBW:
		return fmt.Errorf("mem: %s effective bandwidth %v exceeds pin bandwidth %v", d.Kind, d.EffSeqBW, d.PeakBW)
	}
	return nil
}

// Achieved solves the two-regime Little's Law model for a workload
// offering outstandingLines concurrent cache-line requests.
//
// Regime 1 (concurrency-limited): demanded bandwidth N*S/L is below
// the device's effective peak; the workload achieves its demand. The
// returned latency is the (mildly) loaded latency at that utilization;
// the demand itself is computed against idle latency, which is how the
// calibration constants are fitted.
//
// Regime 2 (bandwidth-limited): the device pins at effective peak and
// the observed latency inflates to N*S/peak so Little's Law balances.
func (d DeviceSpec) Achieved(outstandingLines float64) (units.BytesPerNS, units.Nanoseconds) {
	if outstandingLines <= 0 {
		return 0, d.IdleLatency
	}
	line := float64(units.CacheLine)
	demand := outstandingLines * line / float64(d.IdleLatency)
	peak := float64(d.EffSeqBW)
	if demand <= peak {
		return units.BytesPerNS(demand), d.LoadedLatency(demand / peak)
	}
	lat := units.Nanoseconds(outstandingLines * line / peak)
	return units.BytesPerNS(peak), lat
}

// LoadedLatency returns the access latency at a given utilization in
// [0,1). The curve is a standard convex queueing shape: near-idle
// latency at low load, sharp inflation approaching saturation. It is
// clamped to remain finite at u >= 1.
func (d DeviceSpec) LoadedLatency(util float64) units.Nanoseconds {
	if util < 0 {
		util = 0
	}
	const (
		knee = 0.80 // utilization where queueing becomes visible
		cap  = 3.0  // maximum inflation factor
	)
	if util <= knee {
		// Gentle linear term below the knee (few % inflation).
		return d.IdleLatency * units.Nanoseconds(1+0.10*util/knee)
	}
	if util >= 0.999 {
		return d.IdleLatency * cap
	}
	// Convex blow-up above the knee, clamped.
	x := (util - knee) / (1 - knee)
	f := 1.10 + (cap-1.10)*x*x/(x*x+(1-x))
	if f > cap {
		f = cap
	}
	return d.IdleLatency * units.Nanoseconds(f)
}
