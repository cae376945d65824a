package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
)

// flakyHandler rejects the first n requests with the given status
// (and optional Retry-After), then delegates to ok.
func flakyHandler(t *testing.T, n int, status int, retryAfter string, ok http.HandlerFunc) (http.HandlerFunc, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			writeError(w, status, errors.New("service: job queue full"))
			return
		}
		ok(w, r)
	}, &calls
}

// TestClientRetriesQueueFull pins the graceful-degradation loop: a
// server that answers 429 twice before accepting must cost the client
// exactly three attempts and two observed backoffs, and the final
// submission must succeed.
func TestClientRetriesQueueFull(t *testing.T) {
	h, calls := flakyHandler(t, 2, http.StatusTooManyRequests, "", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, CampaignResponse{Job: JobInfo{ID: "j000001", State: JobQueued}})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var retries []time.Duration
	c := NewClient(srv.URL)
	c.RetryBase = time.Millisecond
	c.OnRetry = func(attempt int, wait time.Duration, err error) {
		retries = append(retries, wait)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			t.Errorf("retry %d observed %v, want a 429 APIError", attempt, err)
		}
	}
	resp, err := c.SubmitCampaign(context.Background(), campaign.Spec{Workloads: []string{"GUPS"}}, false)
	if err != nil {
		t.Fatalf("submit through flaky server: %v", err)
	}
	if resp.Job.ID != "j000001" {
		t.Fatalf("job = %+v", resp.Job)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
	if len(retries) != 2 {
		t.Fatalf("observed %d backoffs, want 2", len(retries))
	}
}

// TestClientHonorsRetryAfter: the server's hint must override a
// shorter computed backoff and surface on the APIError.
func TestClientHonorsRetryAfter(t *testing.T) {
	h, _ := flakyHandler(t, 1, http.StatusTooManyRequests, "1", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusAccepted, CampaignResponse{Job: JobInfo{ID: "j000001"}})
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var waited time.Duration
	c := NewClient(srv.URL)
	c.RetryBase = time.Millisecond // computed backoff ~1ms; hint says 1s
	c.OnRetry = func(_ int, wait time.Duration, _ error) { waited = wait }
	start := time.Now()
	if _, err := c.SubmitCampaign(context.Background(), campaign.Spec{Workloads: []string{"GUPS"}}, false); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if waited != time.Second {
		t.Fatalf("backoff %v, want the server's 1s Retry-After", waited)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("client only waited %v; the Retry-After was not honored", elapsed)
	}
}

// TestClientDoesNotRetryBadRequests: request-shaped errors are final —
// one attempt, the historical error string intact.
func TestClientDoesNotRetryBadRequests(t *testing.T) {
	h, calls := flakyHandler(t, 1<<30, http.StatusBadRequest, "", nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := NewClient(srv.URL)
	c.RetryBase = time.Millisecond
	_, err := c.SubmitCampaign(context.Background(), campaign.Spec{}, false)
	if err == nil {
		t.Fatal("bad request did not error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d attempts for a 400, want 1", got)
	}
	want := "service: POST /v1/campaigns: service: job queue full (HTTP 400)"
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

// TestClientRetriesAcrossRestart pins the crash-tolerance story end
// to end at the transport level: the first attempt dies on a closed
// port (connection refused), the retry lands on a live server.
func TestClientRetriesAcrossRestart(t *testing.T) {
	srv := httptest.NewUnstartedServer(nil)
	var started atomic.Bool
	srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Point the client at a port with no listener first.
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := dead.URL
	dead.Close()

	c := NewClient(addr)
	c.RetryBase = 5 * time.Millisecond
	c.MaxRetries = 6
	c.HTTPClient = &http.Client{Transport: &redirectingTransport{live: srv, started: &started}}
	srv.Start()
	defer srv.Close()
	started.Store(true)

	if err := c.Healthz(context.Background()); err != nil {
		t.Fatalf("healthz through restart: %v", err)
	}
}

// redirectingTransport refuses connections until the live server is
// up, then forwards to it — a restart seen from the client's side.
type redirectingTransport struct {
	live    *httptest.Server
	started *atomic.Bool
}

func (rt *redirectingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.started.Load() {
		return nil, errors.New("dial tcp: connection refused")
	}
	req2 := req.Clone(req.Context())
	req2.URL.Scheme = "http"
	req2.URL.Host = strings.TrimPrefix(rt.live.URL, "http://")
	return http.DefaultTransport.RoundTrip(req2)
}

// TestAPIErrorShape pins the wire decoding: message and Retry-After
// both land on the typed error.
func TestAPIErrorShape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(apiError{Error: "service: job queue full"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.MaxRetries = -1 // single attempt: we inspect the raw error
	err := c.Healthz(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %T is not an *APIError: %v", err, err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter != 7*time.Second {
		t.Fatalf("APIError = %+v", apiErr)
	}
	if !apiErr.Temporary() {
		t.Fatal("429 must report Temporary")
	}
}

// TestClientReusesConnection: the client reads every response to its
// end, so back-to-back campaign submissions whose responses are
// chunked (48 points run far past the server's 2 KiB buffer) share one
// keep-alive connection instead of dialing per request.
func TestClientReusesConnection(t *testing.T) {
	_, c := newTestServer(t)
	c.HTTPClient = &http.Client{Transport: &http.Transport{}}
	spec := campaign.Spec{
		Workloads: []string{"STREAM", "GUPS", "DGEMM", "MiniFE"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{"2GB", "8GB", "16GB", "24GB"},
		Threads:   []int{64},
	}
	var reused []bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
	})
	for i := 0; i < 3; i++ {
		resp, err := c.SubmitCampaign(ctx, spec, true)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result == nil || resp.Result.Points != 48 {
			t.Fatalf("submission %d: %+v", i, resp.Job)
		}
	}
	if len(reused) != 3 || !reused[1] || !reused[2] {
		t.Fatalf("connection reused per request = %v, want every request after the first on the first connection", reused)
	}
}
