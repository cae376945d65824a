package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// benchmarkStack builds the production middleware chain around a
// no-op handler: request-ID generation, route tagging, optionally
// execution tracing, access logging, latency observation into a
// histogram, and panic recovery.
func benchmarkStack(b *testing.B, logText, traced bool) {
	var h http.Handler
	logger := NopLogger()
	if logText {
		var err error
		logger, err = NewLogger(io.Discard, "info", "text")
		if err != nil {
			b.Fatal(err)
		}
	}
	var tracer *Tracer
	if traced {
		tracer = NewTracer(256, time.Second)
	}
	hist := NewRegistry().Histogram("bench_request_seconds", "bench", []string{"route", "code"}, nil)
	h = Chain(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			SetRoute(r.Context(), "GET /bench")
			w.WriteHeader(http.StatusOK)
		}),
		RequestIDs(),
		Tracing(tracer), // nil tracer: pass-through, excluded from the guard
		Logging(logger, time.Second),
		Timing(func(_ *http.Request, route string, status int, _ int64, elapsed time.Duration) {
			hist.Observe(elapsed.Seconds(), route, "200")
		}),
		Recover(func(w http.ResponseWriter, r *http.Request, v any) {}),
	)
	req := httptest.NewRequest(http.MethodGet, "/bench", nil)
	rec := httptest.NewRecorder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(rec, req)
	}
	if got := hist.Count("GET /bench", "200"); got != uint64(b.N) {
		b.Fatalf("histogram saw %d requests, want %d", got, b.N)
	}
}

// BenchmarkMiddlewareOverhead is the CI-guarded number (<2µs per
// request): the stack's own plumbing — ID generation, two context
// values, the response recorder, route resolution, histogram
// observation and recovery — with the log sink disabled, so the guard
// tracks middleware cost rather than slog's formatting throughput.
func BenchmarkMiddlewareOverhead(b *testing.B) {
	benchmarkStack(b, false, false)
}

// BenchmarkMiddlewareWithTracing adds the execution-tracing layer: a
// trace registered in the tracer's rings, the root span, the status
// attribute and tail-sampling classification per request. The delta
// against BenchmarkMiddlewareOverhead is the whole-request price of
// tracing (~0.6µs); the per-span marginal cost has its own guarded
// number in BenchmarkSpanOverhead.
func BenchmarkMiddlewareWithTracing(b *testing.B) {
	benchmarkStack(b, false, true)
}

// BenchmarkMiddlewareWithTextLog is the same chain with INFO text
// logging actually formatting every access-log line (to a discarded
// writer). The delta against BenchmarkMiddlewareOverhead is the price
// of the log line itself (~1.6µs on a 2.1GHz Xeon).
func BenchmarkMiddlewareWithTextLog(b *testing.B) {
	benchmarkStack(b, true, false)
}

// BenchmarkSpanOverhead is the CI-guarded cost of one instrumented
// operation inside a traced request: StartSpan (child context + span
// allocation), one attribute, and End filing the record on the trace.
// The trace is swapped out before the span cap so every iteration pays
// the full append, not the cheaper overflow path.
func BenchmarkSpanOverhead(b *testing.B) {
	tr, _ := NewTrace("bench")
	ctx := ContextWithTrace(context.Background(), tr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%maxSpansPerTrace == 0 && i > 0 {
			b.StopTimer()
			tr, _ = NewTrace("bench")
			ctx = ContextWithTrace(context.Background(), tr)
			b.StartTimer()
		}
		_, sp := StartSpan(ctx, "op")
		sp.SetAttr("k", "v")
		sp.End()
	}
}
