package obs

import (
	"math"
	"runtime/metrics"
)

// This file samples the Go runtime's own telemetry (runtime/metrics)
// into a small fixed set registered as simd_go_* families: heap size,
// goroutine count, GC cycles, and latency quantiles for GC pauses and
// scheduler delays. Sampling happens once per scrape — the runtime
// maintains these counters continuously, so reading them is cheap and
// a dedicated polling goroutine would only add staleness.

// runtimeSamples is the fixed set of runtime/metrics names we read, in
// the order SampleRuntime indexes them.
var runtimeSamples = []string{
	"/memory/classes/heap/objects:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// Quantiles summarizes a runtime latency distribution.
type Quantiles struct {
	P50 float64
	P99 float64
	Max float64
}

// RuntimeStats is one sample of the process's runtime health.
type RuntimeStats struct {
	HeapBytes    uint64
	Goroutines   uint64
	GCCycles     uint64
	GCPause      Quantiles
	SchedLatency Quantiles
}

// RegisterRuntime registers the simd_go_* families on r, all fed by one
// SampleRuntime per scrape.
func RegisterRuntime(r *Registry) {
	var rt RuntimeStats // written by the scrape hook; scrapes are serialized
	r.OnScrape(func() { rt = SampleRuntime() })
	r.GaugeFunc("simd_go_heap_bytes", "Live heap object bytes (runtime/metrics).",
		func() float64 { return float64(rt.HeapBytes) })
	r.GaugeFunc("simd_go_goroutines", "Live goroutines.",
		func() float64 { return float64(rt.Goroutines) })
	r.CounterFunc("simd_go_gc_cycles_total", "Completed GC cycles.",
		func() float64 { return float64(rt.GCCycles) })
	for i, label := range []string{"0.5", "0.99", "max"} {
		pick := func(q Quantiles) float64 { return [...]float64{q.P50, q.P99, q.Max}[i] }
		r.GaugeFunc("simd_go_gc_pause_seconds", "GC stop-the-world pause latency quantiles since process start.",
			func() float64 { return pick(rt.GCPause) }, "quantile", label)
		r.GaugeFunc("simd_go_sched_latency_seconds", "Goroutine scheduling latency quantiles since process start.",
			func() float64 { return pick(rt.SchedLatency) }, "quantile", label)
	}
}

// SampleRuntime reads the current runtime telemetry.
func SampleRuntime() RuntimeStats {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		samples[i].Name = name
	}
	metrics.Read(samples)
	count := func(i int) uint64 {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return samples[i].Value.Uint64()
	}
	quantiles := func(i int) Quantiles {
		if samples[i].Value.Kind() != metrics.KindFloat64Histogram {
			return Quantiles{}
		}
		return histQuantiles(samples[i].Value.Float64Histogram())
	}
	return RuntimeStats{HeapBytes: count(0), Goroutines: count(1), GCCycles: count(2),
		GCPause: quantiles(3), SchedLatency: quantiles(4)}
}

// histQuantiles approximates p50/p99/max from a runtime
// Float64Histogram. Each quantile reports the upper boundary of the
// bucket where the cumulative count crosses it; an infinite boundary
// falls back to the bucket's finite lower edge so gauges stay plottable.
func histQuantiles(h *metrics.Float64Histogram) Quantiles {
	if h == nil || len(h.Counts) == 0 {
		return Quantiles{}
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return Quantiles{}
	}
	// Bucket i spans (Buckets[i], Buckets[i+1]].
	upper := func(i int) float64 {
		v := h.Buckets[i+1]
		if math.IsInf(v, 1) {
			return h.Buckets[i]
		}
		if math.IsInf(v, -1) {
			return 0
		}
		return v
	}
	at := func(q float64) float64 {
		target := uint64(math.Ceil(q * float64(total)))
		var run uint64
		for i, c := range h.Counts {
			run += c
			if run >= target {
				return upper(i)
			}
		}
		return upper(len(h.Counts) - 1)
	}
	var q Quantiles
	q.P50 = at(0.50)
	q.P99 = at(0.99)
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] > 0 {
			q.Max = upper(i)
			break
		}
	}
	return q
}
