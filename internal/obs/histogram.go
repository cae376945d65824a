// Package obs is the service's observability substrate: one metrics
// Registry rendering counters, owner-supplied collect funcs and
// fixed-bucket latency histograms in Prometheus text exposition
// format, request-ID generation and propagation through
// context.Context, a structured-logging constructor on log/slog, and a
// composable http.Handler middleware stack (request IDs, access
// logging, latency metrics, panic recovery) that internal/service
// assembles into its request path. The package is dependency-free by design — the repo
// rule is no new modules, and the Prometheus text format is simple
// enough to emit (and parse, in tests) by hand.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// DefBuckets are the default latency bucket upper bounds in seconds:
// 100µs to 10s, roughly logarithmic — wide enough for a cached hit
// (tens of microseconds land in the first bucket) and a multi-second
// campaign alike. +Inf is implicit.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is one fixed-bucket histogram: cumulative-on-render bucket
// counts, a running sum, and a total count. A mutex (not atomics)
// keeps Observe and Snapshot exactly consistent — the render must
// satisfy count == +Inf bucket even under concurrent observation, and
// at service request rates the lock is invisible.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending, +Inf implicit; immutable
	counts []uint64  // len(bounds)+1; last is the +Inf overflow; guarded by mu
	sum    float64   // guarded by mu
	total  uint64    // guarded by mu
	// exemplars holds the most recent exemplar per bucket, allocated on
	// the first exemplared observation. guarded by mu.
	exemplars []Exemplar
}

// Exemplar links one observed value to the trace that produced it —
// the OpenMetrics affordance that lets a histogram outlier be chased
// to its span tree.
type Exemplar struct {
	TraceID string
	Value   float64
	Unix    float64 // observation time, seconds since the epoch
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (nil means DefBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// ObserveExemplar records one value and, when traceID is non-empty,
// remembers it as the bucket's latest exemplar.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	// Binary search for the first bound >= v; sort.SearchFloat64s
	// finds the insertion point for v, which is exactly that bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	if traceID != "" {
		if h.exemplars == nil {
			h.exemplars = make([]Exemplar, len(h.counts))
		}
		h.exemplars[i] = Exemplar{TraceID: traceID, Value: v, Unix: float64(time.Now().UnixMilli()) / 1000}
	}
	h.mu.Unlock()
}

// HistogramSnapshot is one consistent read of a histogram: cumulative
// bucket counts aligned with Bounds (the final entry is the +Inf
// bucket and equals Count).
type HistogramSnapshot struct {
	Bounds     []float64 // upper bounds; +Inf implicit as the last bucket
	Cumulative []uint64  // len(Bounds)+1, nondecreasing
	Sum        float64
	Count      uint64
	// Exemplars is nil until an exemplared observation lands; otherwise
	// len(Cumulative), with zero-value entries for buckets that never
	// saw one.
	Exemplars []Exemplar
}

// Snapshot returns a consistent cumulative view.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := make([]uint64, len(h.counts))
	var run uint64
	for i, c := range h.counts {
		run += c
		cum[i] = run
	}
	var ex []Exemplar
	if h.exemplars != nil {
		ex = append([]Exemplar(nil), h.exemplars...)
	}
	return HistogramSnapshot{Bounds: h.bounds, Cumulative: cum, Sum: h.sum, Count: h.total, Exemplars: ex}
}

// HistogramVec is a family of histograms keyed by label values —
// simd_http_request_seconds{route,code} and friends. Label sets are
// created on first observation and rendered in sorted order so
// scrapes are deterministic. Registry.Histogram builds one.
type HistogramVec struct {
	name   string
	labels []string
	bounds []float64

	mu   sync.Mutex
	kids map[string]*Histogram // guarded by mu
}

// newHistogramVec builds a histogram family. name is the metric
// family name (without _bucket/_sum/_count suffixes), labels the
// label names every observation must supply values for, bounds the
// shared bucket upper bounds (nil: DefBuckets).
func newHistogramVec(name string, labels []string, bounds []float64) *HistogramVec {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &HistogramVec{name: name, labels: labels, bounds: bounds, kids: make(map[string]*Histogram)}
}

// labelSep joins label values into map keys; label values containing
// it would collide, but ours are routes, status codes and stage names.
const labelSep = "\x1f"

// Observe records v against the histogram for the given label values.
// The value count must match the label names; a mismatch is a
// programming error and panics loudly rather than mislabeling data.
func (v *HistogramVec) Observe(val float64, labelValues ...string) {
	v.ObserveExemplar(val, "", labelValues...)
}

// ObserveExemplar is Observe plus an exemplar: when traceID is
// non-empty, the bucket the value lands in remembers it, and the
// scrape appends an OpenMetrics-style `# {trace_id="..."}` suffix to
// that bucket's row.
func (v *HistogramVec) ObserveExemplar(val float64, traceID string, labelValues ...string) {
	if len(labelValues) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s observed with %d label values, want %d", v.name, len(labelValues), len(v.labels)))
	}
	key := strings.Join(labelValues, labelSep)
	v.mu.Lock()
	h, ok := v.kids[key]
	if !ok {
		h = NewHistogram(v.bounds)
		v.kids[key] = h
	}
	v.mu.Unlock()
	h.ObserveExemplar(val, traceID)
}

// appendExemplar renders a bucket row's exemplar annotation, if any.
// The syntax follows OpenMetrics: the row's value, then " # ", then
// the exemplar labels, the exemplared value and its timestamp.
func appendExemplar(b []byte, ex []Exemplar, i int) []byte {
	if i >= len(ex) || ex[i].TraceID == "" {
		return b
	}
	b = strconv.AppendQuote(append(b, " # {trace_id="...), ex[i].TraceID)
	b = strconv.AppendFloat(append(b, "} "...), ex[i].Value, 'g', -1, 64)
	return strconv.AppendFloat(append(b, ' '), ex[i].Unix, 'f', 3, 64)
}

// appendSamples renders the family's samples: for each label set
// (sorted) the cumulative _bucket rows ending in le="+Inf", then _sum
// and _count. Bounds render the way Prometheus spells le values
// ("0.005", "1", "10").
func (v *HistogramVec) appendSamples(b []byte) []byte {
	v.mu.Lock()
	keys := sortedKeys(v.kids)
	hists := make([]*Histogram, len(keys))
	for i, k := range keys {
		hists[i] = v.kids[k]
	}
	v.mu.Unlock()

	for i, key := range keys {
		snap := hists[i].Snapshot()
		values := splitLabels(key, len(v.labels))
		for j, n := range snap.Cumulative {
			le := "+Inf"
			if j < len(snap.Bounds) {
				le = strconv.FormatFloat(snap.Bounds[j], 'g', -1, 64)
			}
			b = appendExemplar(strconv.AppendUint(appendName(b, v.name, "_bucket", v.labels, values, le), n, 10), snap.Exemplars, j)
			b = append(b, '\n')
		}
		b = appendValue(appendName(b, v.name, "_sum", v.labels, values, ""), snap.Sum)
		b = appendValue(appendName(b, v.name, "_count", v.labels, values, ""), float64(snap.Count))
	}
	return b
}
