package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/obs"
)

// TestSpanTreeEndToEnd is the tentpole acceptance check: a cold wait=1
// campaign produces a queryable span tree at /debug/traces/{request_id}
// whose queue wait / execute / persist spans agree with the job's stage
// timeline, and the request latency histogram carries an exemplar
// referencing the same trace ID.
func TestSpanTreeEndToEnd(t *testing.T) {
	const rid = "span-e2e-1"
	_, c := newTestServer(t)
	ctx := context.Background()
	c.RequestID = rid

	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	resp, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job %+v, want done", resp.Job)
	}
	// Unpin the request ID: a later request reusing it would begin a
	// fresh trace that shadows the campaign's in the tracer's lookup.
	c.RequestID = ""

	tr, err := c.DebugTrace(ctx, rid)
	if err != nil {
		t.Fatalf("no trace for request %s: %v", rid, err)
	}
	if tr.ID != rid {
		t.Fatalf("trace id = %q, want %q", tr.ID, rid)
	}
	if tr.Name != "POST /v1/campaigns" {
		t.Errorf("trace name = %q, want the matched route", tr.Name)
	}

	byName := map[string][]obs.SpanData{}
	byID := map[int]obs.SpanData{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		byID[sp.ID] = sp
	}
	for _, want := range []string{"queue_wait", "execute", "persist", "cache.campaign", "cache.point", "compute"} {
		if len(byName[want]) == 0 {
			t.Fatalf("trace has no %q span; spans: %s", want, RenderSpanTree(tr))
		}
	}

	execute := byName["execute"][0]
	if execute.Parent != obs.RootSpanID {
		t.Errorf("execute span parent = %d, want root", execute.Parent)
	}
	if byName["queue_wait"][0].Parent != obs.RootSpanID {
		t.Errorf("queue_wait span parent = %d, want root", byName["queue_wait"][0].Parent)
	}
	if byName["cache.campaign"][0].Parent != execute.ID {
		t.Errorf("cache.campaign parent = %d, want execute %d", byName["cache.campaign"][0].Parent, execute.ID)
	}

	// The span tree and the stage timeline are two views of one
	// measurement: the queue's stage recorder writes both from the same
	// start and duration, so they agree to within float rounding.
	stages := map[string]StageSpan{}
	for _, st := range resp.Job.Timeline {
		stages[st.Stage] = st
	}
	match := func(name string, sp obs.SpanData) {
		st, ok := stages[name]
		if !ok {
			t.Errorf("timeline has no %q stage", name)
			return
		}
		if diff := sp.MS - st.MS; diff < -0.01 || diff > 0.01 {
			t.Errorf("%s: span %.3f ms vs timeline %.3f ms, want agreement", name, sp.MS, st.MS)
		}
		if !sp.Start.Equal(st.Start) {
			t.Errorf("%s: span start %v vs timeline start %v", name, sp.Start, st.Start)
		}
	}
	match("queue_wait", byName["queue_wait"][0])
	match("execute", execute)
	// Two spans may carry the persist name (the campaign result and the
	// per-point result); the timeline's is the campaign-level one under
	// the execute span.
	var campaignPersist *obs.SpanData
	for i, sp := range byName["persist"] {
		if sp.Parent == execute.ID {
			campaignPersist = &byName["persist"][i]
		}
	}
	if campaignPersist == nil {
		t.Fatalf("no persist span under execute:\n%s", RenderSpanTree(tr))
	}
	match("persist", *campaignPersist)

	// The trace is listed, and the rendered tree carries every stage.
	sums, err := c.DebugTraces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		if s.ID == rid {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s missing from /debug/traces listing", rid)
	}
	rendered := RenderSpanTree(tr)
	for _, want := range []string{rid, "queue_wait", "execute", "compute", "persist"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("RenderSpanTree missing %q:\n%s", want, rendered)
		}
	}

	// The latency histogram's bucket rows carry an OpenMetrics exemplar
	// pointing back at this trace.
	body := scrapeMetrics2(t, c)
	exemplar := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `simd_http_request_seconds_bucket{route="POST /v1/campaigns"`) &&
			strings.Contains(line, `# {trace_id="`+rid+`"}`) {
			exemplar = true
		}
	}
	if !exemplar {
		t.Errorf("no histogram exemplar references trace %s:\n%s", rid, grepLines(body, "simd_http_request_seconds_bucket"))
	}
}

// TestEventFeedTwoSubscribersExactlyOnce: two concurrent SSE watchers
// of one campaign each receive every point-completed event exactly
// once, and watching does not re-execute anything (the campaign still
// computes each point once, pinned by the cache-hit counter).
func TestEventFeedTwoSubscribersExactlyOnce(t *testing.T) {
	srv := NewServer(Options{Workers: 1, QueueDepth: 32})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	c := NewClient(ts.URL)
	ctx := context.Background()

	// Park the single worker so the campaign stays queued while both
	// watchers attach — otherwise a fast campaign could finish before
	// the feeds open and the test would race.
	release := make(chan struct{})
	if _, err := srv.queue.Submit("block", func(ctx context.Context, progress func(int, int)) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}); err != nil {
		t.Fatal(err)
	}

	spec := campaign.Spec{
		Workloads: []string{"STREAM"},
		Configs:   []string{"dram", "hbm"},
		Sizes:     []string{"1GB", "2GB"},
	}
	resp, err := c.SubmitCampaign(ctx, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	jobID := resp.Job.ID

	type feed struct {
		mu     sync.Mutex
		points map[string]int
		states []string
		err    error
	}
	feeds := [2]*feed{{points: map[string]int{}}, {points: map[string]int{}}}
	var wg sync.WaitGroup
	for _, f := range feeds {
		wg.Add(1)
		go func(f *feed) {
			defer wg.Done()
			f.err = c.WatchJob(ctx, jobID, func(ev events.Event) {
				f.mu.Lock()
				defer f.mu.Unlock()
				switch ev.Type {
				case events.TypePoint:
					f.points[ev.Point]++
				case events.TypeState:
					f.states = append(f.states, ev.State)
				}
			})
		}(f)
	}

	// Both feeds subscribed on the bus, then let the campaign run.
	deadline := time.Now().Add(5 * time.Second)
	for subscribers(srv) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("watchers never subscribed: %d", subscribers(srv))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	final, err := c.WaitResult(ctx, jobID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Job.State != JobDone {
		t.Fatalf("job %+v, want done", final.Job)
	}
	if final.Result.Points != 4 {
		t.Fatalf("campaign computed %d points, want 4", final.Result.Points)
	}
	// No re-execution on behalf of the watchers: every point was
	// computed exactly once, none served from cache mid-campaign.
	if final.Result.CacheHits != 0 {
		t.Errorf("cache hits = %d, want 0 on a cold campaign", final.Result.CacheHits)
	}
	body := scrapeMetrics2(t, c)
	if !strings.Contains(body, `simd_point_compute_seconds_count{fidelity="model"} 4`) {
		t.Errorf("compute count is not 4 — points re-executed?\n%s", grepLines(body, "simd_point_compute_seconds_count"))
	}

	for i, f := range feeds {
		if f.err != nil {
			t.Fatalf("watcher %d: %v", i, f.err)
		}
		if len(f.points) != 4 {
			t.Errorf("watcher %d saw %d distinct points, want 4: %v", i, len(f.points), f.points)
		}
		for key, n := range f.points {
			if n != 1 {
				t.Errorf("watcher %d saw point %s %d times, want exactly once", i, key, n)
			}
		}
		if len(f.states) == 0 || f.states[len(f.states)-1] != string(JobDone) {
			t.Errorf("watcher %d states = %v, want a terminal done", i, f.states)
		}
	}
}

// TestJobEventsUnknownJob: the SSE feed 404s before committing to the
// stream when the job does not exist.
func TestJobEventsUnknownJob(t *testing.T) {
	_, c := newTestServer(t)
	err := c.WatchJob(context.Background(), "j999999", func(events.Event) {})
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want HTTP 404", err)
	}
}

// TestJobEventsTerminalSnapshot: watching an already finished job
// delivers exactly one final state event and returns.
func TestJobEventsTerminalSnapshot(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	resp, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []events.Event
	if err := c.WatchJob(ctx, resp.Job.ID, func(ev events.Event) {
		got = append(got, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Final || got[0].State != string(JobDone) {
		t.Fatalf("events = %+v, want exactly one final done snapshot", got)
	}
}

// TestJobStreamFollowsBus: a /stream watcher holds a bus subscription
// on its job for as long as it is connected — progress reaches it by
// push, not by polling the queue — and lets go once the job finishes.
func TestJobStreamFollowsBus(t *testing.T) {
	srv := NewServer(Options{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	c := NewClient(ts.URL)
	ctx := context.Background()

	release := make(chan struct{})
	if _, err := srv.queue.Submit("block", func(ctx context.Context, _ func(int, int)) error {
		<-release
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram", "hbm"}, Sizes: []string{"1GB"}}
	resp, err := c.SubmitCampaign(ctx, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Job.ID

	var snaps []JobInfo
	done := make(chan error, 1)
	go func() {
		done <- c.StreamJob(ctx, id, func(info JobInfo) { snaps = append(snaps, info) })
	}()
	deadline := time.Now().Add(5 * time.Second)
	for subscribers(srv) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stream watcher never subscribed: %d subscribers", subscribers(srv))
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := len(snaps); n < 2 || snaps[0].State != JobQueued || snaps[n-1].State != JobDone || snaps[n-1].Done != 2 {
		t.Fatalf("snapshots %+v, want queued ... done 2/2", snaps)
	}
	if n := subscribers(srv); n != 0 {
		t.Fatalf("%d subscriptions left after the stream closed", n)
	}
}

// TestJobStreamTerminalSnapshot: streaming an already finished job
// writes exactly one line — its final snapshot — and closes.
func TestJobStreamTerminalSnapshot(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	resp, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.Get(c.BaseURL + "/v1/jobs/" + resp.Job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(body), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("stream wrote %d lines, want 1:\n%s", len(lines), body)
	}
	var info JobInfo
	if err := json.Unmarshal([]byte(lines[0]), &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != resp.Job.ID || info.State != JobDone {
		t.Fatalf("snapshot %+v, want the finished job", info)
	}
}

// subscribers counts live bus subscriptions; each test that reads it
// watches a single job.
func subscribers(srv *Server) int {
	_, _, n := srv.events.Stats()
	return n
}

// DebugTraces lists the execution traces the server has retained.
func (c *Client) DebugTraces(ctx context.Context) ([]obs.TraceSummary, error) {
	var out []obs.TraceSummary
	err := c.do(ctx, http.MethodGet, "/debug/traces", nil, &out)
	return out, err
}
