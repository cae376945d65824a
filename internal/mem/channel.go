package mem

import (
	"fmt"
	"sort"
)

// This file contains a small discrete-event model of a multi-channel,
// multi-bank memory device. It exists to validate, from first
// principles, the shape of the closed-form LoadedLatency curve the
// analytic engine uses: requests arriving faster than the banks can
// serve them queue up, and the average latency rises convexly toward
// saturation.

// ChannelSpec describes the timing of one memory channel.
type ChannelSpec struct {
	Banks int
	// RowHitNS is the access time on a row-buffer hit (CAS).
	RowHitNS float64
	// RowMissNS is the access time on a row conflict (PRE+ACT+CAS).
	RowMissNS float64
	// RowHitRatio is the fraction of accesses that hit the open row
	// (near zero for random traffic, high for streams).
	RowHitRatio float64
	// TransferNS is the data-burst occupancy of the channel per
	// 64-byte line.
	TransferNS float64
}

// DDR4ChannelSpec models one of KNL's six 2133 MHz DDR4 channels.
//
//simd:oracle ROADMAP item 5: reference for bandwidth-aware replay, or deleted with it
func DDR4ChannelSpec() ChannelSpec {
	return ChannelSpec{
		Banks:       16,
		RowHitNS:    14.06, // CL 15 at 2133
		RowMissNS:   45.0,  // tRP+tRCD+CL
		RowHitRatio: 0.6,
		TransferNS:  3.75, // 64 B burst at 17 GB/s per channel
	}
}

// MCDRAMChannelSpec models one of the eight MCDRAM EDC channels.
//
//simd:oracle ROADMAP item 5: reference for bandwidth-aware replay, or deleted with it
func MCDRAMChannelSpec() ChannelSpec {
	return ChannelSpec{
		Banks:       16,
		RowHitNS:    18.0, // MCDRAM trades latency for bandwidth
		RowMissNS:   52.0,
		RowHitRatio: 0.6,
		TransferNS:  1.14, // 64 B at ~56 GB/s per EDC
	}
}

// Validate checks the spec.
func (c ChannelSpec) Validate() error {
	if c.Banks <= 0 || c.RowHitNS <= 0 || c.RowMissNS < c.RowHitNS ||
		c.RowHitRatio < 0 || c.RowHitRatio > 1 || c.TransferNS <= 0 {
		return fmt.Errorf("mem: invalid channel spec %+v", c)
	}
	return nil
}

// Request is one line access offered to the device.
type Request struct {
	ArrivalNS float64
	Bank      int // target bank (callers hash addresses)
}

// ChannelResult summarizes a simulation.
type ChannelResult struct {
	Served       int
	AvgLatencyNS float64
	MaxLatencyNS float64
	// AchievedGBs is the delivered bandwidth over the simulated span.
	AchievedGBs float64
}

// SimulateChannel services requests through banks plus a shared data
// bus and returns latency statistics. Requests are sorted by arrival.
func SimulateChannel(spec ChannelSpec, reqs []Request) (ChannelResult, error) {
	if err := spec.Validate(); err != nil {
		return ChannelResult{}, err
	}
	if len(reqs) == 0 {
		return ChannelResult{}, fmt.Errorf("mem: no requests")
	}
	sorted := append([]Request(nil), reqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ArrivalNS < sorted[j].ArrivalNS })

	bankFree := make([]float64, spec.Banks)
	busFree := 0.0
	var sum, max, lastDone float64
	for i, r := range sorted {
		if r.Bank < 0 {
			return ChannelResult{}, fmt.Errorf("mem: negative bank in request %d", i)
		}
		b := r.Bank % spec.Banks
		// Deterministic alternation approximates the row-hit mix.
		service := spec.RowMissNS
		if float64(i%100) < spec.RowHitRatio*100 {
			service = spec.RowHitNS
		}
		start := r.ArrivalNS
		if bankFree[b] > start {
			start = bankFree[b]
		}
		ready := start + service
		// The data burst needs the shared bus.
		burst := ready
		if busFree > burst {
			burst = busFree
		}
		done := burst + spec.TransferNS
		bankFree[b] = done
		busFree = done
		lat := done - r.ArrivalNS
		sum += lat
		if lat > max {
			max = lat
		}
		if done > lastDone {
			lastDone = done
		}
	}
	span := lastDone - sorted[0].ArrivalNS
	res := ChannelResult{
		Served:       len(sorted),
		AvgLatencyNS: sum / float64(len(sorted)),
		MaxLatencyNS: max,
	}
	if span > 0 {
		res.AchievedGBs = float64(len(sorted)) * 64 / span
	}
	return res, nil
}

// UniformLoad builds a request stream at a given offered bandwidth
// (GB/s) spread uniformly over banks for `count` requests.
func UniformLoad(spec ChannelSpec, offeredGBs float64, count int) ([]Request, error) {
	if offeredGBs <= 0 || count <= 0 {
		return nil, fmt.Errorf("mem: offered load and count must be positive")
	}
	gapNS := 64 / offeredGBs
	reqs := make([]Request, count)
	for i := range reqs {
		reqs[i] = Request{
			ArrivalNS: float64(i) * gapNS,
			Bank:      int(uint64(i) * 2654435761 % uint64(spec.Banks)),
		}
	}
	return reqs, nil
}

// LatencyLoadCurve sweeps offered load and returns (utilization,
// avg latency) pairs; tests compare its shape against LoadedLatency.
//
//simd:oracle ROADMAP item 5: reference for bandwidth-aware replay, or deleted with it
func LatencyLoadCurve(spec ChannelSpec, peakGBs float64, points int) ([][2]float64, error) {
	if points <= 1 || peakGBs <= 0 {
		return nil, fmt.Errorf("mem: need >1 points and positive peak")
	}
	var out [][2]float64
	for p := 1; p <= points; p++ {
		util := float64(p) / float64(points+1)
		reqs, err := UniformLoad(spec, util*peakGBs, 4000)
		if err != nil {
			return nil, err
		}
		res, err := SimulateChannel(spec, reqs)
		if err != nil {
			return nil, err
		}
		out = append(out, [2]float64{util, res.AvgLatencyNS})
	}
	return out, nil
}
