package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	// 0.005 and 0.01 land in le=0.01 (upper bounds are inclusive),
	// 0.05 in le=0.1, 0.5 in le=1, 5 overflows to +Inf.
	want := []uint64{2, 3, 4, 5}
	for i, w := range want {
		if snap.Cumulative[i] != w {
			t.Errorf("cumulative[%d] = %d, want %d", i, snap.Cumulative[i], w)
		}
	}
	if snap.Count != 5 {
		t.Errorf("count = %d, want 5", snap.Count)
	}
	if diff := snap.Sum - (0.005 + 0.01 + 0.05 + 0.5 + 5); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("sum = %g", snap.Sum)
	}
}

func TestHistogramVecRendering(t *testing.T) {
	reg := NewRegistry()
	v := reg.Histogram("test_seconds", "Test latency.", []string{"route", "code"}, []float64{0.1, 1})
	v.Observe(0.05, "GET /x", "200")
	v.Observe(0.5, "GET /x", "200")
	v.Observe(2, "GET /y", "500")

	var b bytes.Buffer
	reg.Render(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP test_seconds Test latency.",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{route="GET /x",code="200",le="0.1"} 1`,
		`test_seconds_bucket{route="GET /x",code="200",le="1"} 2`,
		`test_seconds_bucket{route="GET /x",code="200",le="+Inf"} 2`,
		`test_seconds_count{route="GET /x",code="200"} 2`,
		`test_seconds_sum{route="GET /x",code="200"} 0.55`,
		`test_seconds_bucket{route="GET /y",code="500",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q in:\n%s", want, out)
		}
	}
	if got := v.Count("GET /x", "200"); got != 2 {
		t.Errorf("Count = %d, want 2", got)
	}
}

func TestHistogramVecLabelArityPanics(t *testing.T) {
	v := NewRegistry().Histogram("x_seconds", "x", []string{"a", "b"}, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("observing with wrong label arity did not panic")
		}
	}()
	v.Observe(1, "only-one")
}

func TestSanitizeRequestID(t *testing.T) {
	cases := map[string]string{
		"abc-123_X.y":           "abc-123_X.y",
		"":                      "",
		"has space":             "",
		"inject=\"x\"":          "",
		"line\nbreak":           "",
		strings.Repeat("a", 65): "",
		strings.Repeat("a", 64): strings.Repeat("a", 64),
	}
	for in, want := range cases {
		if got := SanitizeRequestID(in); got != want {
			t.Errorf("SanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if len(id) != 16 {
			t.Fatalf("id %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

// TestMiddlewareStack drives a request through the full chain and
// checks every layer: request ID honored and echoed, route tagged,
// access log structured, timing observed, panic recovered.
func TestMiddlewareStack(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	type obsRec struct {
		route  string
		status int
		bytes  int64
	}
	var observed []obsRec

	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, r *http.Request) {
		SetRoute(r.Context(), "GET /ok")
		fmt.Fprintf(w, "id=%s", RequestID(r.Context()))
	})
	mux.HandleFunc("GET /boom", func(w http.ResponseWriter, r *http.Request) {
		SetRoute(r.Context(), "GET /boom")
		panic("kaboom")
	})
	h := Chain(mux,
		RequestIDs(),
		Logging(logger, time.Hour),
		Timing(func(_ *http.Request, route string, status int, bytes int64, _ time.Duration) {
			observed = append(observed, obsRec{route, status, bytes})
		}),
		Recover(func(w http.ResponseWriter, r *http.Request, v any) {
			http.Error(w, fmt.Sprint(v), http.StatusInternalServerError)
		}),
	)

	// A request with a client-supplied ID keeps it end to end.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/ok", nil)
	req.Header.Set(RequestIDHeader, "client-id-7")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got != "client-id-7" {
		t.Errorf("echoed id = %q, want client-id-7", got)
	}
	if body := rec.Body.String(); body != "id=client-id-7" {
		t.Errorf("handler saw %q", body)
	}

	// A malformed inbound ID is replaced, never propagated.
	rec = httptest.NewRecorder()
	req = httptest.NewRequest("GET", "/ok", nil)
	req.Header.Set(RequestIDHeader, "evil id\nwith=injection")
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get(RequestIDHeader); got == "" || strings.Contains(got, "evil") {
		t.Errorf("malformed id not replaced: %q", got)
	}

	// A panic becomes the Recover handler's 500.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("panic status = %d, want 500", rec.Code)
	}

	// A 404 is observed under the unmatched route label.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", rec.Code)
	}

	if len(observed) != 4 {
		t.Fatalf("observed %d requests, want 4", len(observed))
	}
	if observed[0].route != "GET /ok" || observed[0].status != 200 || observed[0].bytes == 0 {
		t.Errorf("observation 0 = %+v", observed[0])
	}
	if observed[2].route != "GET /boom" || observed[2].status != 500 {
		t.Errorf("panic observation = %+v", observed[2])
	}
	if observed[3].route != "unmatched" || observed[3].status != 404 {
		t.Errorf("404 observation = %+v", observed[3])
	}

	// The access log is valid JSON with the structured fields.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("access log has %d lines, want 4:\n%s", len(lines), logBuf.String())
	}
	var entry map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access log line not JSON: %v", err)
	}
	for _, field := range []string{"method", "path", "route", "status", "bytes", "dur_ms", "request_id"} {
		if _, ok := entry[field]; !ok {
			t.Errorf("access log missing field %q: %v", field, entry)
		}
	}
	if entry["request_id"] != "client-id-7" {
		t.Errorf("access log request_id = %v", entry["request_id"])
	}
	// The 500 from the panic is promoted to WARN.
	var panicEntry map[string]any
	if err := json.Unmarshal([]byte(lines[2]), &panicEntry); err != nil {
		t.Fatal(err)
	}
	if panicEntry["level"] != "WARN" {
		t.Errorf("5xx log level = %v, want WARN", panicEntry["level"])
	}
}

// TestSlowRequestPromotion: requests beyond the slow threshold log at
// WARN.
func TestSlowRequestPromotion(t *testing.T) {
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	slowH := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	})
	h := Chain(slowH, RequestIDs(), Logging(logger, time.Millisecond))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))

	var entry map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &entry); err != nil {
		t.Fatalf("log not JSON: %v\n%s", err, logBuf.String())
	}
	if entry["level"] != "WARN" || entry["msg"] != "slow request" {
		t.Errorf("slow request logged as %v %v, want WARN \"slow request\"", entry["level"], entry["msg"])
	}
}

func TestLoggerFlagParsing(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, "verbose", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
	var b bytes.Buffer
	l, err := NewLogger(&b, "warn", "text")
	if err != nil {
		t.Fatal(err)
	}
	l.Info("dropped")
	l.Warn("kept")
	if out := b.String(); strings.Contains(out, "dropped") || !strings.Contains(out, "kept") {
		t.Errorf("level filter wrong: %s", out)
	}
	NopLogger().Info("nothing happens")
}
