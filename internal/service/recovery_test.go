package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultfs"
)

// newDurableTestServer boots a durable server over dataDir and wires
// it behind httptest. It does NOT register a graceful Close — the
// crash tests abandon servers on purpose.
func newDurableTestServer(t *testing.T, dataDir string, opt Options) (*Server, *Client, *httptest.Server, RecoveryStats) {
	t.Helper()
	opt.DataDir = dataDir
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 8
	}
	srv, rec, err := NewDurableServer(opt)
	if err != nil {
		t.Fatalf("durable boot: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL), ts, rec
}

func scrapeMetrics(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var quickSpec = campaign.Spec{
	Name:      "crash-test",
	Workloads: []string{"STREAM"},
	Configs:   []string{"dram", "hbm"},
	Sizes:     []string{"2GB", "8GB"},
	Threads:   []int{64},
}

// TestCrashRecoveryWarmsCaches is the headline crash invariant: kill
// a durable server after a campaign finished (no graceful shutdown),
// boot a fresh server over the same data directory, and the identical
// campaign must be served from the persisted results — zero
// recomputation — while the old job ID still answers with its result.
func TestCrashRecoveryWarmsCaches(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	_, c1, ts1, _ := newDurableTestServer(t, dir, Options{})
	first, err := c1.SubmitCampaign(ctx, quickSpec, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Job.State != JobDone || first.Result == nil {
		t.Fatalf("first campaign: %+v", first.Job)
	}
	// Crash: drop the HTTP listener, never call Close. The journal
	// holds the accepted+done records; the result store holds the
	// outcomes.
	ts1.Close()

	srv2, c2, ts2, rec := newDurableTestServer(t, dir, Options{})
	t.Cleanup(func() { srv2.Close(context.Background()) })
	if rec.Results == 0 {
		t.Fatalf("recovery loaded no results: %+v", rec)
	}
	if rec.Restored != 1 {
		t.Fatalf("restored %d finished jobs, want 1: %+v", rec.Restored, rec)
	}

	// The finished job survives the restart with its result attached.
	old, err := c2.Job(ctx, first.Job.ID)
	if err != nil {
		t.Fatalf("job %s after restart: %v", first.Job.ID, err)
	}
	if old.Job.State != JobDone || old.Result == nil {
		t.Fatalf("restored job %s: state=%s result=%v", first.Job.ID, old.Job.State, old.Result != nil)
	}

	// The identical campaign is a pure cache hit.
	hits0, misses0 := srv2.campaigns.Stats()
	again, err := c2.SubmitCampaign(ctx, quickSpec, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Result == nil || !again.Result.Cached {
		t.Fatal("resubmitted campaign recomputed after restart; the warmed cache did not serve it")
	}
	hits1, misses1 := srv2.campaigns.Stats()
	if hits1 != hits0+1 || misses1 != misses0 {
		t.Fatalf("campaign cache hits %d->%d misses %d->%d, want one pure hit", hits0, hits1, misses0, misses1)
	}
	if m := scrapeMetrics(t, ts2); !strings.Contains(m, `simd_jobs_recovered_total{state="restored"} 1`) {
		t.Fatalf("metrics missing restored-jobs row:\n%s", grepMetrics(m, "recovered"))
	}
}

// TestCrashRecoveryRequeuesAcceptedJob: a job the server 202-accepted
// but never ran (crash while it sat queued) must be re-enqueued at
// boot under its original ID and run to completion.
func TestCrashRecoveryRequeuesAcceptedJob(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv1, c1, ts1, _ := newDurableTestServer(t, dir, Options{Workers: 1})
	// Pin the only worker on un-journaled work so the accepted
	// campaign never starts.
	block := make(chan struct{})
	if _, err := srv1.queue.Submit("run", func(ctx context.Context, _ func(int, int)) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := c1.SubmitCampaign(ctx, quickSpec, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobQueued {
		t.Fatalf("job state %s, want queued", resp.Job.State)
	}
	// Crash with the job still queued. The blocker stays parked so the
	// abandoned server can never run the campaign behind our back.
	ts1.Close()
	_ = block

	srv2, c2, ts2, rec := newDurableTestServer(t, dir, Options{})
	t.Cleanup(func() { srv2.Close(context.Background()) })
	if rec.Requeued != 1 {
		t.Fatalf("requeued %d jobs, want 1: %+v", rec.Requeued, rec)
	}
	final, err := c2.WaitResult(ctx, resp.Job.ID)
	if err != nil {
		t.Fatalf("wait for requeued job %s: %v", resp.Job.ID, err)
	}
	if final.Job.State != JobDone || final.Result == nil {
		t.Fatalf("requeued job finished %s (%s), result=%v", final.Job.State, final.Job.Error, final.Result != nil)
	}
	if m := scrapeMetrics(t, ts2); !strings.Contains(m, `simd_jobs_recovered_total{state="requeued"} 1`) {
		t.Fatalf("metrics missing requeued-jobs row:\n%s", grepMetrics(m, "recovered"))
	}
}

// TestCrashRecoveryIdempotent: re-running an interrupted job must not
// double-execute work that already persisted — its points are read
// back from disk.
func TestCrashRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Run the identical point set once so every point result is on
	// disk, then crash with a campaign of those points still queued.
	srv1, c1, ts1, _ := newDurableTestServer(t, dir, Options{Workers: 1})
	if _, err := c1.SubmitCampaign(ctx, quickSpec, true); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	srv1.queue.Submit("run", func(ctx context.Context, _ func(int, int)) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	})
	// A wider campaign: its 4 original points are on disk, the 2 new
	// 24GB points are not. (The campaign key is content-addressed over
	// the point set, so the extra size makes this a distinct campaign.)
	wider := quickSpec
	wider.Sizes = append(append([]string{}, quickSpec.Sizes...), "24GB")
	resp, err := c1.SubmitCampaign(ctx, wider, false)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	_ = block

	srv2, c2, _, rec := newDurableTestServer(t, dir, Options{})
	t.Cleanup(func() { srv2.Close(context.Background()) })
	if rec.Requeued != 1 {
		t.Fatalf("requeued %d, want 1", rec.Requeued)
	}
	final, err := c2.WaitResult(ctx, resp.Job.ID)
	if err != nil || final.Job.State != JobDone {
		t.Fatalf("requeued job: %v %+v", err, final.Job)
	}
	// Only the two never-run 24GB points cost a computation; the four
	// persisted ones were read back from disk.
	if _, misses := srv2.points.Stats(); misses != 2 {
		t.Fatalf("re-run recomputed %d points, want 2; recovery must be idempotent over persisted results", misses)
	}
	if final.Result.Points != 6 || final.Result.CacheHits != 4 {
		t.Fatalf("re-run reports %d/%d cache hits, want 4/6", final.Result.CacheHits, final.Result.Points)
	}
}

// TestJournalFaultRefusesWork: when the journal cannot record an
// accepted job, the server must answer 500 and enqueue NOTHING — a
// 202 it cannot make durable is a lie. The same holds for a campaign
// the cache already holds: its 200 stands for a durable done record.
func TestJournalFaultRefusesWork(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	fault := faultfs.New(nil)
	srv, c, _, _ := newDurableTestServer(t, dir, Options{DataFS: fault})

	fault.FailAfterWrites(0, false) // every write now fails, like a dead disk
	_, err := c.SubmitCampaign(ctx, quickSpec, false)
	if err == nil {
		t.Fatal("submit with a dead journal succeeded")
	}
	if !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), "journal") {
		t.Fatalf("error = %v, want a journal 500", err)
	}
	if got := len(srv.queue.Unfinished()); got != 0 {
		t.Fatalf("%d jobs enqueued despite the failed journal append", got)
	}
	queued, running, completed, _ := srv.queue.Counts()
	if queued != 0 || running != 0 || completed != 0 {
		t.Fatalf("queue counts %d/%d/%d after refused work, want 0/0/0", queued, running, completed)
	}

	// The disk comes back: the service accepts work again.
	fault.Reset()
	resp, err := c.SubmitCampaign(ctx, quickSpec, true)
	if err != nil {
		t.Fatalf("submit after disk recovery: %v", err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job %+v", resp.Job)
	}

	// The disk dies again: the now-cached campaign is refused too, and
	// no job is registered for it.
	fault.FailAfterWrites(0, false)
	_, _, completed, _ = srv.queue.Counts()
	for _, wait := range []bool{true, false} {
		_, err = c.SubmitCampaign(ctx, quickSpec, wait)
		if err == nil || !strings.Contains(err.Error(), "HTTP 500") || !strings.Contains(err.Error(), "journal") {
			t.Fatalf("cached submit with a dead journal (wait=%t): %v, want a journal 500", wait, err)
		}
	}
	if _, _, after, _ := srv.queue.Counts(); after != completed {
		t.Fatalf("done jobs %d->%d after refused cached submissions", completed, after)
	}
	srv.queue.mu.Lock()
	n := len(srv.queue.jobs)
	srv.queue.mu.Unlock()
	if n != 1 {
		t.Fatalf("%d jobs registered, want only the one accepted while the disk worked", n)
	}
	fault.Reset()
}

// TestQueueFullAnswers429 pins graceful degradation server-side: a
// full queue answers 429 with a positive integer Retry-After.
func TestQueueFullAnswers429(t *testing.T) {
	srv := NewServer(Options{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})

	// Fill the worker, wait for it to start, then fill the single
	// queue slot (submitting back-to-back races the worker's pickup).
	block := make(chan struct{})
	defer close(block)
	blocker := func(ctx context.Context, _ func(int, int)) error {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil
	}
	if _, err := srv.queue.Submit("run", blocker); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, running, _, _ := srv.queue.Counts(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := srv.queue.Submit("run", blocker); err != nil {
		t.Fatal(err)
	}

	c := NewClient(ts.URL)
	c.MaxRetries = -1 // inspect the raw 429
	_, err := c.SubmitCampaign(context.Background(), quickSpec, false)
	apiErr, ok := errAsAPI(err)
	if !ok || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %v, want HTTP 429", err)
	}
	if apiErr.RetryAfter < time.Second {
		t.Fatalf("Retry-After %v, want >= 1s", apiErr.RetryAfter)
	}
	if !strings.Contains(apiErr.Message, "queue full") {
		t.Fatalf("message %q does not explain the rejection", apiErr.Message)
	}
}

// TestWaitDisconnectFreesWorker: a client that disconnects from
// /v1/campaigns?wait=1 must cancel the running campaign and hand the
// worker back — no leaked slots, queue depth back to zero.
func TestWaitDisconnectFreesWorker(t *testing.T) {
	srv := NewServer(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	c := NewClient(ts.URL)
	c.MaxRetries = -1

	// A trace-fidelity sweep: ~30 points x tens of ms each, so the
	// cancel lands mid-campaign and takes effect at a point boundary.
	slow := campaign.Spec{
		Name:      "slow",
		Fidelity:  campaign.FidelityTrace,
		Workloads: []string{"GUPS", "STREAM"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{"4GB", "8GB", "12GB", "16GB", "24GB"},
		Threads:   []int{64},
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.SubmitCampaign(ctx, slow, true)
		errc <- err
	}()

	// Wait for the campaign to start running, then disconnect.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, running, _, _ := srv.queue.Counts(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled wait returned no error")
	}

	// The worker must come back without the campaign finishing all 30
	// points: the job ends failed (context canceled), not done.
	for {
		queued, running, _, failed := srv.queue.Counts()
		if running == 0 && queued == 0 {
			if failed != 1 {
				t.Fatalf("disconnected campaign: %d failed jobs, want 1 (job should be cancelled, not completed)", failed)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still busy %v after disconnect (queued=%d running=%d)", 10*time.Second, queued, running)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the freed worker accepts new work.
	quick, err := c.SubmitCampaign(context.Background(), quickSpec, true)
	if err != nil || quick.Job.State != JobDone {
		t.Fatalf("worker did not recover: %v %+v", err, quick.Job)
	}
}

// TestPanicMiddleware: a handler panic must become a 500 with the
// error envelope and a simd_panics_total increment — and the server
// must keep serving.
func TestPanicMiddleware(t *testing.T) {
	srv := NewServer(Options{Workers: 1, QueueDepth: 4})
	srv.mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic answered %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "kaboom") {
		t.Fatalf("panic body %q does not carry the cause", body)
	}
	if err := NewClient(ts.URL).Healthz(context.Background()); err != nil {
		t.Fatalf("server dead after a recovered panic: %v", err)
	}
	if m := scrapeMetrics(t, ts); !strings.Contains(m, "simd_panics_total 1") {
		t.Fatalf("metrics missing panic count:\n%s", grepMetrics(m, "panic"))
	}
}

// TestJobTimeoutHeader: an unparseable or negative X-Simd-Timeout is
// a 400; a tiny one cancels the job with a deadline error.
func TestJobTimeoutHeader(t *testing.T) {
	srv := NewServer(Options{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	body := strings.NewReader(`{"workloads":["STREAM"],"configs":["dram"],"sizes":["2GB"]}`)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns", body)
	req.Header.Set(timeoutHeader, "not-a-duration")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad timeout header answered %d, want 400", resp.StatusCode)
	}

	// A 1ns deadline cannot finish any campaign: the job must fail
	// with a deadline error, not hang.
	slow := campaign.Spec{
		Fidelity:  campaign.FidelityTrace,
		Workloads: []string{"GUPS"},
		Configs:   []string{"dram"},
		Sizes:     []string{"16GB"},
		Threads:   []int{64},
	}
	buf, _ := json.Marshal(slow)
	req, _ = http.NewRequest(http.MethodPost, ts.URL+"/v1/campaigns?wait=1", strings.NewReader(string(buf)))
	req.Header.Set(timeoutHeader, "1ns")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out CampaignResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out.Job.State != JobFailed || !strings.Contains(out.Job.Error, "deadline") {
		t.Fatalf("1ns-deadline job: %+v", out.Job)
	}
}

// --- small helpers ---------------------------------------------------

func errAsAPI(err error) (*APIError, bool) {
	var apiErr *APIError
	ok := err != nil && errors.As(err, &apiErr)
	return apiErr, ok
}

func grepMetrics(m, needle string) string {
	var out []string
	for _, line := range strings.Split(m, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return fmt.Sprintf("(no lines matching %q)", needle)
	}
	return strings.Join(out, "\n")
}
