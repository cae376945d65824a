package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/obs"
)

// APIError is a non-2xx response from the service: the status, the
// server's error message, and — on 429/503 — the server's Retry-After
// hint. Its Error string keeps the historical "service: METHOD PATH:
// message (HTTP status)" shape.
type APIError struct {
	Method     string
	Path       string
	Status     int
	Message    string
	RetryAfter time.Duration // zero when the server sent no hint
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// Temporary reports whether the failure is worth retrying: the server
// said "busy, come back" (429) or "unavailable" (503).
func (e *APIError) Temporary() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// Client is the Go client of the simulation service, used by
// cmd/simctl and the examples. The zero HTTP client is fine for
// in-process (httptest) servers and for localhost.
//
// JSON requests retry automatically on transport errors and on
// 429/503 responses with capped exponential backoff plus jitter,
// honoring the server's Retry-After. Every request the client retries
// is idempotent by construction — results are content-addressed, so a
// duplicate submission lands on the same cache entry. Streaming paths
// (trace upload, job streams) never retry: their bodies are not
// replayable.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8077".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxRetries bounds retry attempts after the first try (<0
	// disables retrying; 0 means the default of 4).
	MaxRetries int
	// RetryBase is the first backoff step, doubled each retry up to
	// RetryMax (defaults 250ms and 15s). The server's Retry-After
	// overrides the computed backoff when it is longer.
	RetryBase time.Duration
	RetryMax  time.Duration
	// OnRetry, when set, observes every backoff decision (simctl
	// prints "server busy, retrying in Ns").
	OnRetry func(attempt int, wait time.Duration, err error)
	// RequestID, when set, is sent as X-Request-Id on every request so
	// client-chosen correlation keys appear in the server's access log,
	// job records and journal (simctl -request-id).
	RequestID string
}

// setRequestID stamps the client's correlation key on one request.
func (c *Client) setRequestID(req *http.Request) {
	if c.RequestID != "" {
		req.Header.Set("X-Request-Id", c.RequestID)
	}
}

// NewClient builds a client for a server base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) retryBudget() (tries int, base, max time.Duration) {
	tries = c.MaxRetries
	switch {
	case tries < 0:
		tries = 0
	case tries == 0:
		tries = 4
	}
	if base = c.RetryBase; base <= 0 {
		base = 250 * time.Millisecond
	}
	if max = c.RetryMax; max <= 0 {
		max = 15 * time.Second
	}
	return tries, base, max
}

// do issues a request and decodes the JSON response into out,
// unwrapping the service's error envelope on non-2xx statuses and
// retrying temporary failures. The marshaled body is replayed from
// memory on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	tries, base, maxDelay := c.retryBudget()
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, buf, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if attempt >= tries || !retryable(err) || ctx.Err() != nil {
			return lastErr
		}
		// Exponential backoff with jitter in [wait/2, wait); a server
		// Retry-After longer than that wins — it knows its backlog.
		wait := base << attempt
		if wait > maxDelay {
			wait = maxDelay
		}
		wait = wait/2 + time.Duration(rand.Int63n(int64(wait/2)+1))
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > wait {
			wait = apiErr.RetryAfter
			if wait > maxDelay {
				wait = maxDelay
			}
		}
		if c.OnRetry != nil {
			c.OnRetry(attempt+1, wait, err)
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(wait):
		}
	}
}

// retryable reports whether one attempt's failure is worth another:
// transport errors (connection refused, reset — the server may be
// restarting) and explicit server backpressure. Context cancellation
// and request-shaped errors (4xx other than 429) are final.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	return true // transport-level failure
}

// once is a single request attempt.
func (c *Client) once(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.setRequestID(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Method: method, Path: path, Status: resp.StatusCode}
		var envelope apiError
		if json.NewDecoder(resp.Body).Decode(&envelope) == nil {
			apiErr.Message = envelope.Error
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Workloads lists the registered workloads.
func (c *Client) Workloads(ctx context.Context) ([]WorkloadInfo, error) {
	var out []WorkloadInfo
	err := c.do(ctx, http.MethodGet, "/v1/workloads", nil, &out)
	return out, err
}

// Experiments lists the paper experiments the service can run.
func (c *Client) Experiments(ctx context.Context) ([]ExperimentInfo, error) {
	var out []ExperimentInfo
	err := c.do(ctx, http.MethodGet, "/v1/experiments", nil, &out)
	return out, err
}

// Run executes one point synchronously.
func (c *Client) Run(ctx context.Context, req RunRequest) (RunResponse, error) {
	var out RunResponse
	err := c.do(ctx, http.MethodPost, "/v1/run", req, &out)
	return out, err
}

// Advise asks for a ranked memory-mode recommendation.
func (c *Client) Advise(ctx context.Context, req AdviseRequest) (AdviseResponse, error) {
	var out AdviseResponse
	err := c.do(ctx, http.MethodPost, "/v1/advise", req, &out)
	return out, err
}

// Cluster asks for a multi-node scaling sweep: how the workload's
// global problem decomposes across node counts, and the minimum node
// count whose sub-problems fit HBM.
func (c *Client) Cluster(ctx context.Context, req ClusterRequest) (ClusterResponse, error) {
	var out ClusterResponse
	err := c.do(ctx, http.MethodPost, "/v1/cluster", req, &out)
	return out, err
}

// UploadTrace streams a trace body (NDJSON, CSV, gzip of either, or
// the binary trace format — the server sniffs) into the durable
// store and returns its content address. Re-uploading an identical
// stream dedupes: Existed is true and no second copy is written.
func (c *Client) UploadTrace(ctx context.Context, body io.Reader) (TraceUploadResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/traces", body)
	if err != nil {
		return TraceUploadResponse{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.setRequestID(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return TraceUploadResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr apiError
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return TraceUploadResponse{}, fmt.Errorf("service: POST /v1/traces: %s (HTTP %d)", apiErr.Error, resp.StatusCode)
		}
		return TraceUploadResponse{}, fmt.Errorf("service: POST /v1/traces: HTTP %d", resp.StatusCode)
	}
	var out TraceUploadResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return TraceUploadResponse{}, err
	}
	return out, nil
}

// Traces lists the stored traces.
func (c *Client) Traces(ctx context.Context) ([]TraceInfo, error) {
	var out []TraceInfo
	err := c.do(ctx, http.MethodGet, "/v1/traces", nil, &out)
	return out, err
}

// Trace fetches one stored trace's metadata.
func (c *Client) Trace(ctx context.Context, id string) (TraceInfo, error) {
	var out TraceInfo
	err := c.do(ctx, http.MethodGet, "/v1/traces/"+url.PathEscape(id), nil, &out)
	return out, err
}

// DeleteTrace removes a stored trace.
func (c *Client) DeleteTrace(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/traces/"+url.PathEscape(id), nil, nil)
}

// Replay feeds a stored trace through the scaled cache hierarchy
// under one memory configuration.
func (c *Client) Replay(ctx context.Context, req ReplayRequest) (ReplayResponse, error) {
	var out ReplayResponse
	err := c.do(ctx, http.MethodPost, "/v1/replay", req, &out)
	return out, err
}

// SubmitCampaign submits a campaign. With wait set the call blocks
// until the result is ready.
func (c *Client) SubmitCampaign(ctx context.Context, spec campaign.Spec, wait bool) (CampaignResponse, error) {
	path := "/v1/campaigns"
	if wait {
		path += "?wait=1"
	}
	var out CampaignResponse
	err := c.do(ctx, http.MethodPost, path, spec, &out)
	return out, err
}

// Job polls one job.
func (c *Client) Job(ctx context.Context, id string) (CampaignResponse, error) {
	var out CampaignResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out)
	return out, err
}

// WaitResult blocks server-side until the job completes and returns
// its result envelope.
func (c *Client) WaitResult(ctx context.Context, id string) (CampaignResponse, error) {
	var out CampaignResponse
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id)+"/result", nil, &out)
	return out, err
}

// StreamJob follows the NDJSON progress feed of a job, invoking
// onUpdate for every snapshot, and returns when the job reaches a
// terminal state or ctx is cancelled.
func (c *Client) StreamJob(ctx context.Context, id string, onUpdate func(JobInfo)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/stream", nil)
	if err != nil {
		return err
	}
	c.setRequestID(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("service: stream %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var info JobInfo
		if err := json.Unmarshal(line, &info); err != nil {
			return fmt.Errorf("service: bad stream line %q: %w", line, err)
		}
		if onUpdate != nil {
			onUpdate(info)
		}
	}
	return sc.Err()
}

// WatchJob follows the live SSE event feed of a job (GET
// /v1/jobs/{id}/events), invoking onEvent for every event, and
// returns once the feed's final event arrives or ctx is cancelled.
// Keepalive comments and SSE framing are consumed here; onEvent sees
// only decoded events.
func (c *Client) WatchJob(ctx context.Context, id string, onEvent func(events.Event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.BaseURL+"/v1/jobs/"+url.PathEscape(id)+"/events", nil)
	if err != nil {
		return err
	}
	c.setRequestID(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("service: watch %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		// Only data: lines carry payload; id:/event: framing and
		// ": keepalive" comments are consumed silently.
		payload, ok := bytes.CutPrefix(line, []byte("data: "))
		if !ok {
			continue
		}
		var ev events.Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("service: bad event %q: %w", payload, err)
		}
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Final {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("service: watch %s: feed ended before the final event", id)
}

// DebugTrace fetches the span tree of one execution trace by trace ID
// (the request ID of the request that produced it).
func (c *Client) DebugTrace(ctx context.Context, id string) (obs.TraceData, error) {
	var out obs.TraceData
	err := c.do(ctx, http.MethodGet, "/debug/traces/"+url.PathEscape(id), nil, &out)
	return out, err
}
