package engine

import (
	"repro/internal/cache"
	"repro/internal/units"
)

// SeqBandwidth predicts the aggregate bandwidth of a sequential,
// prefetch-friendly access stream (STREAM-like) with a reuse working
// set of the given footprint, under a configuration and total thread
// count. It returns ErrDoesNotFit when the footprint exceeds the
// configuration's capacity (Fig. 2 stops the HBM line at 16 GB).
func (m *Machine) SeqBandwidth(cfg MemoryConfig, footprint units.Bytes, threads int) (units.BytesPerNS, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if err := m.CheckFit(cfg, footprint); err != nil {
		return 0, err
	}
	conc := m.Chip.SeqConcurrency(threads)
	switch cfg.Kind {
	case BindDRAM:
		bw, _ := m.Chip.DDR.Achieved(conc)
		return bw, nil
	case BindHBM:
		bw, _ := m.Chip.MCDRAM.Achieved(conc)
		return bw, nil
	case InterleaveFlat:
		// Pages round-robin across the devices: each serves half the
		// stream with half the concurrency; the slower half gates.
		d, _ := m.Chip.DDR.Achieved(conc / 2)
		h, _ := m.Chip.MCDRAM.Achieved(conc / 2)
		lo := d
		if h < lo {
			lo = h
		}
		return 2 * lo, nil
	case CacheMode:
		return m.cacheModeSeqBandwidth(footprint, m.Chip.MCDRAM.Capacity, conc), nil
	case Hybrid:
		flat := units.Bytes(float64(m.Chip.MCDRAM.Capacity) * cfg.HybridFlatFraction)
		cacheCap := m.Chip.MCDRAM.Capacity - flat
		if footprint <= flat {
			bw, _ := m.Chip.MCDRAM.Achieved(conc)
			return bw, nil
		}
		// Traffic splits proportionally to residency: the flat slice
		// streams at MCDRAM speed, the spill goes through the
		// (shrunken) cache.
		inFlat := float64(flat) / float64(footprint)
		hbw, _ := m.Chip.MCDRAM.Achieved(conc)
		cbw := m.cacheModeSeqBandwidth(footprint-flat, cacheCap, conc)
		// Serial mixture over bytes (harmonic combination).
		mix := 1 / (inFlat/float64(hbw) + (1-inFlat)/float64(cbw))
		return units.BytesPerNS(mix), nil
	}
	return 0, cfg.Validate()
}

// cacheModeSeqBandwidth composes the hit path (MCDRAM, with tag-check
// overhead) and the miss path (DRAM read + fill + writeback traffic
// amplification) of the direct-mapped memory-side cache. The three
// anchors of Fig. 2 calibrate the hit ratio curve:
//
//	~260 GB/s at half capacity, ~125 GB/s at 0.71x, below the 77 GB/s
//	DRAM line past ~1.4x capacity.
func (m *Machine) cacheModeSeqBandwidth(footprint, capacity units.Bytes, conc float64) units.BytesPerNS {
	cal := m.Chip.Cal
	h := cache.DirectMappedStreamHitRatio(footprint, capacity, cal.CacheModeHitRatioAnchors)

	// MCDRAM-side budget: every access checks tags and reads or fills
	// a line, so MCDRAM moves (1 + (1-h)) bytes per application byte.
	mcTraffic := 2 - h
	mcPath := float64(cal.CacheModeHitBW) / mcTraffic

	// DRAM-side budget: misses read from DDR and pay fill/writeback
	// amplification.
	missTraffic := (1 - h) * cal.CacheModeMissDRAMFactor
	dramPath := mcPath // non-binding when there are no misses
	if missTraffic > 0 {
		dramPath = float64(m.Chip.DDR.PeakBW) / missTraffic
	}

	bw := mcPath
	if dramPath < bw {
		bw = dramPath
	}
	// Concurrency ceiling (Little's law). For streaming, the
	// prefetcher hides the tag check, so the relevant latencies are
	// near the device idle values: MCDRAM plus a small tag adder on a
	// hit, DDR plus the fill on a miss.
	hitLat := float64(m.Chip.MCDRAM.IdleLatency) * 1.1
	missLat := float64(m.Chip.DDR.IdleLatency) + 0.5*float64(m.Chip.MCDRAM.IdleLatency)
	latency := h*hitLat + (1-h)*missLat
	concCap := conc * float64(units.CacheLine) / latency
	if concCap < bw {
		bw = concCap
	}
	return units.BytesPerNS(bw)
}

// randomBandwidthCap returns the line-transfer bandwidth budget (in
// bytes/ns) available to random accesses under a configuration.
// occupancy is the total cache-mode working set (see
// memoryRandomLatencyNS).
func (m *Machine) randomBandwidthCap(cfg MemoryConfig, occupancy units.Bytes) float64 {
	switch cfg.Kind {
	case BindHBM:
		return float64(m.Chip.MCDRAM.EffSeqBW)
	case InterleaveFlat:
		return float64(m.Chip.DDR.EffSeqBW) + float64(m.Chip.MCDRAM.EffSeqBW)
	case CacheMode:
		// The hit fraction is served by MCDRAM, the rest by DDR.
		h := m.cacheModeRandomHit(occupancy, m.Chip.MCDRAM.Capacity)
		return h*float64(m.Chip.MCDRAM.EffSeqBW) + (1-h)*float64(m.Chip.DDR.EffSeqBW)
	default:
		return float64(m.Chip.DDR.EffSeqBW)
	}
}

// backingDevice returns the device whose queueing curve governs
// random-access latency inflation under a configuration.
func (m *Machine) backingDevice(cfg MemoryConfig) knlDevice {
	if cfg.Kind == BindHBM {
		return knlDevice{m.Chip.MCDRAM.IdleLatency, m.Chip.MCDRAM.LoadedLatency}
	}
	return knlDevice{m.Chip.DDR.IdleLatency, m.Chip.DDR.LoadedLatency}
}

type knlDevice struct {
	idle   units.Nanoseconds
	loaded func(float64) units.Nanoseconds
}
