package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opRec is one operation of the traffic.
type opRec struct {
	// due is when the op's latency clock starts: its scheduled time if
	// it had to queue for a connection, else the moment it was sent.
	// sent is when the load generator actually sent it.
	due, sent, done time.Time
	// lag is how late the load generator was: sent minus the scheduled time in
	// an open loop; in a closed loop, the generator's own time between the
	// previous op's completion and this send.
	lag  time.Duration
	err  error
	kind int // the op's request kind (warm_query_mix only)
	// work is the exact count of simulated accesses the op caused.
	work int64
	// reqs are the op's requests, recorded in the traced phase only.
	reqs []reqRec
}

func (o *opRec) latency() time.Duration { return o.done.Sub(o.due) }

// openLoop sends n scheduled ops over conns connections. Op i is
// scheduled at start+at(i). A connection that is free early waits for
// that time; when every connection is busy the op goes out late, and
// its latency still runs from the scheduled time, so a stall is
// charged to every op queued behind it instead of silently thinning
// the load.
func openLoop(ctx context.Context, n, conns int, at func(i int) time.Duration, send func(i int, rec *opRec) error) []opRec {
	recs := make([]opRec, n)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				rec := &recs[i]
				scheduled := start.Add(at(i))
				picked := time.Now()
				if d := scheduled.Sub(picked); d > 0 {
					t := time.NewTimer(d)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				}
				rec.sent = time.Now()
				rec.lag = rec.sent.Sub(scheduled)
				rec.due = scheduled
				if !picked.After(scheduled) {
					// The connection was free in time, so any lateness is
					// the load generator's own timer slack, not queueing in the
					// service: the op's clock starts at the send, and the
					// slack shows up as lag only.
					rec.due = rec.sent
				}
				rec.err = send(i, rec)
				rec.done = time.Now()
			}
		}()
	}
	wg.Wait()
	out := recs[:0]
	for _, r := range recs {
		if !r.done.IsZero() {
			out = append(out, r)
		}
	}
	return out
}

// closedLoop runs ops back to back on one connection until d has
// passed and at least minOps ops completed, or 4d has passed. prepare
// builds op i (generating its inputs) before the op's clock starts.
func closedLoop(ctx context.Context, d time.Duration, minOps int, prepare func(i int) func(rec *opRec) error) []opRec {
	start := time.Now()
	prev := start
	var recs []opRec
	for i := 0; ctx.Err() == nil; i++ {
		el := time.Since(start)
		if (el >= d && len(recs) >= minOps) || el >= 4*d {
			break
		}
		op := prepare(i)
		rec := opRec{sent: time.Now()}
		rec.due, rec.lag = rec.sent, rec.sent.Sub(prev)
		rec.err = op(&rec)
		rec.done = time.Now()
		prev = rec.done
		recs = append(recs, rec)
	}
	return recs
}

// minBeyond is how many samples must rank above a tail percentile for
// it to be reported: below that it is an extrapolation.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of ascending samples
// and whether at least minBeyond samples rank above it.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return sorted[k], n-1-k >= minBeyond
}

// median returns the median of samples (0 for none); it sorts a copy.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of samples (0 for none).
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
