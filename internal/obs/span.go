package obs

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the execution-tracing half of the package: spans record
// where a request's time went (queue wait, cache probes, point compute,
// replay passes, persistence), a Trace collects the spans one request
// produced, and a Tracer retains completed traces in bounded rings with
// tail-based sampling so errors and slow requests are always queryable
// after the fact. The trace ID is the request ID — one correlation key
// links the access log, the job record, the journal, the metrics
// exemplars and the span tree.

// RootSpanID is the span ID of every trace's root span: span IDs are
// allocated from 1 and the root is always the first allocation.
const RootSpanID = 1

// maxSpansPerTrace bounds one trace's span count so a pathological
// campaign (thousands of points) cannot hold the whole request history
// in memory. Overflowing spans are counted, not stored; the root span
// is always kept.
const maxSpansPerTrace = 2048

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the completed, immutable record of one span.
type SpanData struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	MS     float64   `json:"ms"`
	Attrs  []Attr    `json:"attrs,omitempty"`
	Error  bool      `json:"error,omitempty"`
}

// Span is one live timed operation. It is owned by the goroutine that
// started it until End, which files the completed record on the trace;
// a nil *Span is a valid no-op (work running outside any trace), so
// instrumentation never needs nil checks.
type Span struct {
	tr     *Trace
	id     int
	parent int
	name   string
	start  time.Time
	attrs  []Attr
	err    bool

	// scratch backs the first attrs entries so the common one-or-two
	// attribute span costs no extra allocation (the middleware budget
	// is guarded in CI).
	scratch [2]Attr
}

// ID returns the span's ID within its trace (0 for a nil span).
func (s *Span) ID() int {
	if s == nil {
		return 0
	}
	return s.id
}

// SetName renames the span — the tracing middleware names the root
// span after the matched route, which is only known after dispatch.
func (s *Span) SetName(name string) {
	if s != nil {
		s.name = name
	}
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	if s.attrs == nil {
		s.attrs = s.scratch[:0]
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetError marks the span failed; a trace holding any failed span is
// pinned by tail sampling.
func (s *Span) SetError(failed bool) {
	if s != nil {
		s.err = failed
	}
}

// End completes the span now.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt completes the span at an explicit instant, so a span recording
// an externally measured interval (a job stage) carries exactly its
// duration.
func (s *Span) EndAt(t time.Time) {
	if s == nil {
		return
	}
	attrs := s.attrs
	if len(attrs) > 0 && &attrs[0] == &s.scratch[0] {
		// The record outlives the span: copy scratch-backed attrs so a
		// retained SpanData does not pin the whole Span.
		attrs = append([]Attr(nil), attrs...)
	}
	s.tr.append(SpanData{
		ID: s.id, Parent: s.parent, Name: s.name, Start: s.start,
		MS: float64(t.Sub(s.start).Microseconds()) / 1000, Attrs: attrs, Error: s.err,
	})
}

// Trace collects the spans of one request, keyed by its request ID.
// Spans may keep arriving after the root span ends (async jobs outlive
// the submitting request); snapshots are taken under the mutex so a
// reader always sees a consistent tree.
type Trace struct {
	id    string
	start time.Time
	root  Span // the request-level span, allocated with the trace

	nextID atomic.Int64
	hasErr atomic.Bool

	mu      sync.Mutex
	spans   []SpanData // completed spans; guarded by mu
	dropped int        // spans discarded past the cap; guarded by mu
	name    string     // root route, set at finish; guarded by mu
	doneMS  float64    // root duration, set at finish; guarded by mu
	pinned  bool       // kept by tail sampling; guarded by mu
}

// NewTrace builds a trace and its root span (ID RootSpanID).
func NewTrace(id string) (*Trace, *Span) {
	tr := &Trace{id: id, start: time.Now()}
	tr.nextID.Store(RootSpanID)
	tr.root = Span{tr: tr, id: RootSpanID, name: "request", start: tr.start}
	return tr, &tr.root
}

// NewSpan starts a span with an explicit parent and start time — the
// queue's job stages use it, ending each with EndAt, including stages
// measured retrospectively (queue wait is only known at pickup).
// parent 0 attaches to nothing; use RootSpanID for top-level job spans.
func (t *Trace) NewSpan(name string, parent int, start time.Time) *Span {
	return &Span{tr: t, id: int(t.nextID.Add(1)), parent: parent, name: name, start: start}
}

// append files one completed span.
func (t *Trace) append(sd SpanData) {
	if sd.Error {
		t.hasErr.Store(true)
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpansPerTrace && sd.ID != RootSpanID {
		t.dropped++
	} else {
		t.spans = append(t.spans, sd)
	}
	t.mu.Unlock()
}

// HasError reports whether any completed span failed.
func (t *Trace) HasError() bool { return t.hasErr.Load() }

// finish stamps the root route name and end-to-end duration.
func (t *Trace) finish(name string, elapsed time.Duration, pinned bool) {
	t.mu.Lock()
	t.name = name
	t.doneMS = float64(elapsed.Microseconds()) / 1000
	t.pinned = pinned
	t.mu.Unlock()
}

// TraceData is the queryable snapshot of one trace: the whole span
// tree, flattened (parents by ID).
type TraceData struct {
	ID      string     `json:"id"`
	Name    string     `json:"name,omitempty"`
	Start   time.Time  `json:"start"`
	MS      float64    `json:"ms,omitempty"`
	Error   bool       `json:"error,omitempty"`
	Pinned  bool       `json:"pinned,omitempty"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// Snapshot copies the trace's current state. Spans are sorted by ID
// (allocation order), so parents precede children.
func (t *Trace) Snapshot() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]SpanData(nil), t.spans...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	return TraceData{
		ID: t.id, Name: t.name, Start: t.start, MS: t.doneMS,
		Error: t.hasErr.Load(), Pinned: t.pinned, Dropped: t.dropped, Spans: spans,
	}
}

// TraceSummary is one row of the trace listing.
type TraceSummary struct {
	ID     string    `json:"id"`
	Name   string    `json:"name,omitempty"`
	Start  time.Time `json:"start"`
	MS     float64   `json:"ms,omitempty"`
	Spans  int       `json:"spans"`
	Error  bool      `json:"error,omitempty"`
	Pinned bool      `json:"pinned,omitempty"`
}

// summary renders the trace's listing row.
func (t *Trace) summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TraceSummary{
		ID: t.id, Name: t.name, Start: t.start, MS: t.doneMS,
		Spans: len(t.spans), Error: t.hasErr.Load(), Pinned: t.pinned,
	}
}

// Tracer retains completed traces with tail-based sampling: every
// trace enters a general FIFO ring; at finish, traces that erred or ran
// slower than the slow threshold are moved to a pinned ring so the
// interesting tail survives churn that would evict it from the general
// ring. Both rings are bounded by the same capacity.
type Tracer struct {
	capacity int
	slow     time.Duration

	mu      sync.Mutex
	general []*Trace          // FIFO of recent traces; guarded by mu
	pinset  []*Trace          // errors + slow requests; guarded by mu
	byID    map[string]*Trace // latest trace per ID; guarded by mu
}

// NewTracer builds a tracer retaining up to capacity recent traces
// plus up to capacity pinned (error/slow) traces (<=0: 256). Requests
// taking slow or longer are pinned; slow <= 0 disables pinning by
// latency.
func NewTracer(capacity int, slow time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	return &Tracer{capacity: capacity, slow: slow, byID: make(map[string]*Trace)}
}

// Begin opens a trace for one request and registers it immediately, so
// in-flight requests are already queryable. A duplicate ID (a client
// pinning its own X-Request-Id across requests) shadows the older
// trace in lookups; both age out of the rings normally.
func (t *Tracer) Begin(id string) (*Trace, *Span) {
	tr, root := NewTrace(id)
	t.mu.Lock()
	t.general = append(t.general, tr)
	if len(t.general) > t.capacity {
		t.evictLocked(&t.general)
	}
	t.byID[id] = tr
	t.mu.Unlock()
	return tr, root
}

// evictLocked drops the oldest trace of a ring, unmapping its ID only
// if the map still points at that exact trace.
func (t *Tracer) evictLocked(ring *[]*Trace) {
	old := (*ring)[0]
	*ring = (*ring)[1:]
	if t.byID[old.id] == old {
		delete(t.byID, old.id)
	}
}

// Finish classifies a completed request: an error status, a failed
// span, or latency past the slow threshold pins the trace.
func (t *Tracer) Finish(tr *Trace, route string, status int, elapsed time.Duration) {
	pin := status >= 500 || tr.HasError() || (t.slow > 0 && elapsed >= t.slow)
	tr.finish(route, elapsed, pin)
	if !pin {
		return
	}
	t.mu.Lock()
	for i, g := range t.general {
		if g == tr {
			t.general = append(t.general[:i], t.general[i+1:]...)
			break
		}
	}
	t.pinset = append(t.pinset, tr)
	if len(t.pinset) > t.capacity {
		t.evictLocked(&t.pinset)
	}
	// Moving rings may have been preceded by a general-ring eviction
	// racing in; restore the lookup entry.
	t.byID[tr.id] = tr
	t.mu.Unlock()
}

// Get returns the snapshot of the trace with the given ID.
func (t *Tracer) Get(id string) (TraceData, bool) {
	t.mu.Lock()
	tr := t.byID[id]
	t.mu.Unlock()
	if tr == nil {
		return TraceData{}, false
	}
	return tr.Snapshot(), true
}

// List summarizes every retained trace, newest first.
func (t *Tracer) List() []TraceSummary {
	t.mu.Lock()
	all := make([]*Trace, 0, len(t.general)+len(t.pinset))
	all = append(all, t.general...)
	all = append(all, t.pinset...)
	t.mu.Unlock()
	out := make([]TraceSummary, len(all))
	for i, tr := range all {
		out[i] = tr.summary()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// Stats returns (retained, pinned) trace counts.
func (t *Tracer) Stats() (retained, pinned int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.general) + len(t.pinset), len(t.pinset)
}

// Register publishes the tracer's ring occupancy on r.
func (t *Tracer) Register(r *Registry) {
	r.GaugeFunc("simd_exec_traces", "Execution traces retained for /debug/traces.",
		func() float64 { n, _ := t.Stats(); return float64(n) })
	r.GaugeFunc("simd_exec_traces_pinned", "Traces pinned by tail sampling (errors and slow requests).",
		func() float64 { _, n := t.Stats(); return float64(n) })
}

// traceCtx is the context payload: the live trace and the current span
// ID new children attach under.
type traceCtx struct {
	tr   *Trace
	span int
}

// ContextWithTrace attaches a trace to the context with the root span
// as the current parent.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return ContextWithSpan(ctx, tr, RootSpanID)
}

// ContextWithSpan attaches a trace with an explicit current span — the
// queue installs the execute span as the parent of everything the job
// body does.
func ContextWithSpan(ctx context.Context, tr *Trace, spanID int) context.Context {
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, traceCtx{tr: tr, span: spanID})
}

// TraceFrom returns the context's trace, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tc, _ := ctx.Value(traceKey).(traceCtx)
	return tc.tr
}

// StartSpan opens a child of the context's current span and returns a
// context under which further spans nest inside it. Without a trace in
// the context it returns ctx unchanged and a nil (no-op) span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tc, ok := ctx.Value(traceKey).(traceCtx)
	if !ok {
		return ctx, nil
	}
	sp := tc.tr.NewSpan(name, tc.span, time.Now())
	return context.WithValue(ctx, traceKey, traceCtx{tr: tc.tr, span: sp.id}), sp
}

// statusLabel renders a status code without allocating for the codes
// the service actually answers with (the middleware chain has a
// CI-guarded per-request budget).
func statusLabel(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusAccepted:
		return "202"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusTooManyRequests:
		return "429"
	case http.StatusInternalServerError:
		return "500"
	}
	return strconv.Itoa(status)
}

// Tracing is the execution-tracing middleware: it opens a trace named
// by the request ID, roots a span over the whole request, and hands
// the finished trace to the tracer's tail sampler. It sits just inside
// RequestIDs so the trace ID and request ID always coincide.
func Tracing(tracer *Tracer) Middleware {
	return func(next http.Handler) http.Handler {
		if tracer == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := Wrap(w)
			tr, root := tracer.Begin(RequestID(r.Context()))
			ctx := ContextWithTrace(r.Context(), tr)
			next.ServeHTTP(rec, r.WithContext(ctx))

			route := Route(ctx)
			if route == "" {
				route = "unmatched"
			}
			status := rec.StatusOrDefault()
			root.SetName(route)
			root.SetAttr("status", statusLabel(status))
			if status >= 500 {
				root.SetError(true)
			}
			root.End()
			tracer.Finish(tr, route, status, time.Since(tr.start))
		})
	}
}
