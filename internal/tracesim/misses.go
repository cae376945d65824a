package tracesim

import (
	"fmt"

	"repro/internal/cache"
)

// Upper is what a replay computes above the memory lanes for the
// measured pass: the access count, the L1 and L2 counters, the
// prefetches issued and the L1/L2 hit time. Every lane's Result is
// Upper plus that lane's memory-system counters and fill time.
type Upper struct {
	Accesses   int64
	L1, L2     cache.Stats
	Prefetches int64
	HitPS      uint64
}

// MissRecorder receives a Simulator's miss log as Run drains it (see
// Record). Entries are line<<2 | op, in stream order.
type MissRecorder interface {
	// Misses takes the next drained run of entries. The slice is the
	// simulator's log buffer and is valid only during the call.
	Misses(log []uint64)
	// Warm marks the end of the warm-up passes: the entries recorded
	// after it belong to the measured pass.
	Warm()
}

// Record makes rec receive every miss-log entry later Runs drain, and
// a Warm mark where each Run's measured pass begins. Together with
// Upper after the Run, that is everything DrainLanes needs to
// reproduce any memory lane of the replay without the stream.
func (s *Simulator) Record(rec MissRecorder) { s.rec = rec }

// MissSource yields a recorded miss log in blocks, as views valid
// until the next call; ok=false ends the log.
type MissSource interface {
	NextMisses() ([]uint64, bool)
}

// DrainLanes replays a recorded miss log into one fresh memory lane
// per config. up is the recorded replay's Upper and warm the number of
// entries recorded before its Warm mark. Result i is exactly the
// LaneResult a Simulator running the recorded stream with a lane for
// cfgs[i] reports, provided every config shares the recording's
// Hierarchy — which the caller checks. Cache lanes apply the entries
// one by one, warm-up included; flat lanes only count the measured
// entries by opcode.
func DrainLanes(cfgs []Config, up Upper, warm int64, src MissSource) ([]Result, error) {
	lanes, err := newLanes(cfgs)
	if err != nil {
		return nil, err
	}
	var seen int64
	var n [4]int64
	for {
		log, ok := src.NextMisses()
		if !ok {
			break
		}
		if seen < warm {
			head := log[:min(int64(len(log)), warm-seen)]
			drainCached(lanes, head)
			seen += int64(len(head))
			log = log[len(head):]
			if seen == warm {
				for i := range lanes {
					lanes[i].reset()
				}
			}
		}
		seen += int64(len(log))
		drainCached(lanes, log)
		countOps(&n, log)
	}
	if seen < warm {
		return nil, fmt.Errorf("tracesim: miss log ended after %d entries, inside its %d-entry warm-up", seen, warm)
	}
	res := make([]Result, len(lanes))
	for i := range lanes {
		if lanes[i].mc == nil {
			lanes[i].addFlat(&n)
		}
		res[i] = lanes[i].result(up)
	}
	return res, nil
}

// drainCached applies a run of miss-log entries to every lane with a
// memory-side cache.
func drainCached(lanes []lane, log []uint64) {
	for i := range lanes {
		if lanes[i].mc != nil {
			lanes[i].drain(log)
		}
	}
}

// countOps adds the entries of log to the per-opcode counts n.
//
//simd:hotpath — runs once per recorded block on every drained replay.
func countOps(n *[4]int64, log []uint64) {
	for _, e := range log {
		n[e&3]++
	}
}
