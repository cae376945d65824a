package obs

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSpanTreeNesting(t *testing.T) {
	tr, root := NewTrace("req-1")
	if root.ID() != RootSpanID {
		t.Fatalf("root span ID = %d, want %d", root.ID(), RootSpanID)
	}
	ctx := ContextWithTrace(context.Background(), tr)
	if got := TraceFrom(ctx); got != tr {
		t.Fatalf("TraceFrom returned %v, want the installed trace", got)
	}
	ctx2, child := StartSpan(ctx, "child")
	if child == nil {
		t.Fatal("StartSpan returned a nil span with a trace in context")
	}
	_, grand := StartSpan(ctx2, "grandchild")
	grand.SetAttr("k", "v")
	grand.SetError(true)
	grand.End()
	child.End()
	root.End()

	snap := tr.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(snap.Spans))
	}
	byName := map[string]SpanData{}
	for _, sp := range snap.Spans {
		byName[sp.Name] = sp
	}
	if byName["child"].Parent != RootSpanID {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, RootSpanID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %d, want child %d", byName["grandchild"].Parent, byName["child"].ID)
	}
	if !byName["grandchild"].Error {
		t.Error("grandchild span lost its error mark")
	}
	if len(byName["grandchild"].Attrs) != 1 || byName["grandchild"].Attrs[0].Key != "k" {
		t.Errorf("grandchild attrs = %v, want [{k v}]", byName["grandchild"].Attrs)
	}
	if !snap.Error {
		t.Error("trace with a failed span should report Error")
	}
	if !tr.HasError() {
		t.Error("HasError should be true after a failed span")
	}
}

func TestSpanNilSafety(t *testing.T) {
	// Work running outside any trace gets a nil span; every method must
	// be a no-op rather than a panic.
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("StartSpan without a trace returned %v, want nil", sp)
	}
	if ctx != context.Background() {
		t.Fatal("StartSpan without a trace must return the context unchanged")
	}
	sp.SetName("x")
	sp.SetAttr("k", "v")
	sp.SetError(true)
	sp.End()
	if sp.ID() != 0 {
		t.Fatalf("nil span ID = %d, want 0", sp.ID())
	}
	if tr := TraceFrom(ctx); tr != nil {
		t.Fatalf("TraceFrom without a trace = %v, want nil", tr)
	}
}

func TestTraceRetrospectiveSpans(t *testing.T) {
	tr, root := NewTrace("req-2")
	start := time.Now().Add(-50 * time.Millisecond)
	qwSpan := tr.NewSpan("queue_wait", RootSpanID, start)
	qwSpan.SetAttr("depth", "3")
	qwSpan.EndAt(start.Add(40 * time.Millisecond))
	root.End()

	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(snap.Spans))
	}
	var qw SpanData
	for _, sp := range snap.Spans {
		if sp.Name == "queue_wait" {
			qw = sp
		}
	}
	if qw.ID == 0 {
		t.Fatal("queue_wait span missing from snapshot")
	}
	if qw.MS < 39.9 || qw.MS > 40.1 {
		t.Errorf("queue_wait MS = %g, want 40", qw.MS)
	}
	if !qw.Start.Equal(start) {
		t.Errorf("queue_wait start = %v, want %v", qw.Start, start)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr, root := NewTrace("req-3")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		tr.NewSpan("leaf", RootSpanID, time.Now()).End()
	}
	// The root span always files even over the cap — a trace without
	// its root renders as all orphans.
	root.End()

	snap := tr.Snapshot()
	if len(snap.Spans) != maxSpansPerTrace+1 {
		t.Fatalf("retained %d spans, want cap %d + root", len(snap.Spans), maxSpansPerTrace)
	}
	if snap.Dropped != 10 {
		t.Fatalf("dropped = %d, want 10", snap.Dropped)
	}
	if snap.Spans[0].ID != RootSpanID {
		t.Fatalf("first span by ID = %d, want root %d", snap.Spans[0].ID, RootSpanID)
	}
}

func TestTracerRingBounds(t *testing.T) {
	tracer := NewTracer(4, 0)
	for i := 0; i < 10; i++ {
		tr, root := tracer.Begin(fmt.Sprintf("req-%d", i))
		root.End()
		tracer.Finish(tr, "/v1/run", http.StatusOK, time.Millisecond)
	}
	retained, pinned := tracer.Stats()
	if retained != 4 || pinned != 0 {
		t.Fatalf("stats = (%d, %d), want (4, 0)", retained, pinned)
	}
	if _, ok := tracer.Get("req-0"); ok {
		t.Error("oldest trace should have been evicted")
	}
	if _, ok := tracer.Get("req-9"); !ok {
		t.Error("newest trace should be retained")
	}
	if got := len(tracer.List()); got != 4 {
		t.Fatalf("List returned %d traces, want 4", got)
	}
}

func TestTracerTailSamplingPinsErrorsAndSlow(t *testing.T) {
	tracer := NewTracer(2, 100*time.Millisecond)

	// An error trace survives arbitrary general-ring churn.
	errTr, errRoot := tracer.Begin("req-err")
	errRoot.SetError(true)
	errRoot.End()
	tracer.Finish(errTr, "/v1/run", http.StatusInternalServerError, time.Millisecond)

	// A slow-but-successful trace is pinned by the latency threshold.
	slowTr, slowRoot := tracer.Begin("req-slow")
	slowRoot.End()
	tracer.Finish(slowTr, "/v1/run", http.StatusOK, 150*time.Millisecond)

	for i := 0; i < 20; i++ {
		tr, root := tracer.Begin(fmt.Sprintf("churn-%d", i))
		root.End()
		tracer.Finish(tr, "/v1/run", http.StatusOK, time.Millisecond)
	}

	got, ok := tracer.Get("req-err")
	if !ok {
		t.Fatal("error trace was evicted; tail sampling should pin it")
	}
	if !got.Pinned || !got.Error {
		t.Errorf("error trace pinned=%v error=%v, want true/true", got.Pinned, got.Error)
	}
	slow, ok := tracer.Get("req-slow")
	if !ok {
		t.Fatal("slow trace was evicted; tail sampling should pin it")
	}
	if !slow.Pinned {
		t.Error("slow trace should be pinned")
	}
	_, pinned := tracer.Stats()
	if pinned != 2 {
		t.Fatalf("pinned = %d, want 2", pinned)
	}
	// The pinned ring is bounded too.
	for i := 0; i < 5; i++ {
		tr, root := tracer.Begin(fmt.Sprintf("slow-%d", i))
		root.End()
		tracer.Finish(tr, "/v1/run", http.StatusOK, time.Second)
	}
	retained, pinned := tracer.Stats()
	if pinned != 2 {
		t.Fatalf("pinned ring grew to %d, want capacity 2", pinned)
	}
	if retained > 4 {
		t.Fatalf("retained = %d, want <= 2x capacity", retained)
	}
}

func TestTracingMiddleware(t *testing.T) {
	tracer := NewTracer(8, 0)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		SetRoute(r.Context(), "GET /v1/thing")
		_, sp := StartSpan(r.Context(), "work")
		sp.End()
		w.WriteHeader(http.StatusOK)
	})
	h := Chain(inner, RequestIDs(), Tracing(tracer))

	req := httptest.NewRequest(http.MethodGet, "/v1/thing", nil)
	req.Header.Set("X-Request-Id", "trace-mw-1")
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)

	data, ok := tracer.Get("trace-mw-1")
	if !ok {
		t.Fatal("middleware did not register the trace under the request ID")
	}
	if data.Name != "GET /v1/thing" {
		t.Errorf("trace name = %q, want the matched route", data.Name)
	}
	if len(data.Spans) != 2 {
		t.Fatalf("trace has %d spans, want root + work", len(data.Spans))
	}
	root := data.Spans[0]
	if root.ID != RootSpanID || root.Name != "GET /v1/thing" {
		t.Errorf("root span = %+v, want ID 1 named after the route", root)
	}
	if data.Spans[1].Parent != RootSpanID {
		t.Errorf("work span parent = %d, want root", data.Spans[1].Parent)
	}
	if data.Error || data.Pinned {
		t.Errorf("successful fast request pinned=%v error=%v, want false/false", data.Pinned, data.Error)
	}
}

func TestTracingMiddlewarePinsServerError(t *testing.T) {
	tracer := NewTracer(8, 0)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	h := Chain(inner, RequestIDs(), Tracing(tracer))

	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	req.Header.Set("X-Request-Id", "trace-mw-err")
	h.ServeHTTP(httptest.NewRecorder(), req)

	data, ok := tracer.Get("trace-mw-err")
	if !ok {
		t.Fatal("error trace missing")
	}
	if !data.Pinned || !data.Error {
		t.Errorf("500 trace pinned=%v error=%v, want true/true", data.Pinned, data.Error)
	}
	if data.Name != "unmatched" {
		t.Errorf("trace name = %q, want unmatched for a route-less request", data.Name)
	}
}
