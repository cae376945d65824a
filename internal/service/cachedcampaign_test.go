package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/tracestore"
)

// newHitServer is newTestServer that also returns the httptest server,
// for /metrics scrapes.
func newHitServer(t *testing.T) (*Server, *Client, *httptest.Server) {
	t.Helper()
	srv := NewServer(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	return srv, NewClient(ts.URL), ts
}

// checkBornDone fails unless job is a done campaign job that no worker
// ran: its timeline holds its persist stage and nothing else.
func checkBornDone(t *testing.T, job JobInfo, points int) {
	t.Helper()
	if job.State != JobDone || job.Kind != "campaign" || job.Done != points || job.Total != points {
		t.Fatalf("cached submission job %+v, want a done campaign at %d/%d", job, points, points)
	}
	if job.Started == nil || job.Finished == nil || job.QueueMS != 0 {
		t.Fatalf("cached submission job %+v: want started and finished, no queue wait", job)
	}
	if len(job.Timeline) != 1 || job.Timeline[0].Stage != "persist" {
		t.Fatalf("cached submission timeline %+v, want only its persist stage", job.Timeline)
	}
}

// TestCachedCampaignAnsweredInHandler: a resubmission the campaign
// cache holds is a 200 carrying a done job and the cached result, with
// or without ?wait=1, and costs one cache hit, no miss and no worker.
func TestCachedCampaignAnsweredInHandler(t *testing.T) {
	ctx := context.Background()
	srv, c, ts := newHitServer(t)
	first, err := c.SubmitCampaign(ctx, quickSpec, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result == nil || first.Result.Cached {
		t.Fatalf("first submission: %+v", first.Job)
	}
	want := cachedCopy(first.Result)

	for _, wait := range []bool{true, false} {
		hits0, misses0 := srv.campaigns.Stats()
		_, _, done0, _ := srv.queue.Counts()
		const rid = "cached-hit"
		c.RequestID = rid
		got, err := c.SubmitCampaign(ctx, quickSpec, wait)
		c.RequestID = ""
		if err != nil {
			t.Fatalf("wait=%t: %v", wait, err)
		}
		checkBornDone(t, got.Job, 4)
		if got.Job.RequestID != rid {
			t.Errorf("wait=%t: request id %q, want %q", wait, got.Job.RequestID, rid)
		}
		if !reflect.DeepEqual(got.Result, want) {
			t.Fatalf("wait=%t: cached response differs from the first:\n got %+v\nwant %+v", wait, got.Result, want)
		}
		hits1, misses1 := srv.campaigns.Stats()
		if hits1 != hits0+1 || misses1 != misses0 {
			t.Fatalf("wait=%t: campaign cache hits %d->%d misses %d->%d, want one hit and no miss", wait, hits0, hits1, misses0, misses1)
		}
		if _, _, done1, _ := srv.queue.Counts(); done1 != done0+1 {
			t.Fatalf("wait=%t: done jobs %d->%d, want the cached job counted", wait, done0, done1)
		}
		polled, err := c.Job(ctx, got.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(polled.Result, want) {
			t.Fatalf("wait=%t: polled result differs from the served one", wait)
		}

		// The span tree: the peek's hit and the persist stage, both under
		// the request's root, and no queue_wait or execute.
		tr, err := c.DebugTrace(ctx, rid)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, sp := range tr.Spans {
			if sp.ID == obs.RootSpanID {
				continue
			}
			if sp.Parent != obs.RootSpanID {
				t.Errorf("wait=%t: span %s parent %d, want the root", wait, sp.Name, sp.Parent)
			}
			names = append(names, sp.Name)
			if sp.Name == "cache.campaign" && (len(sp.Attrs) != 1 || sp.Attrs[0] != (obs.Attr{Key: "hit", Value: "true"})) {
				t.Errorf("wait=%t: cache.campaign attrs %+v, want hit=true", wait, sp.Attrs)
			}
		}
		if strings.Join(names, ",") != "cache.campaign,persist" {
			t.Errorf("wait=%t: spans %v, want cache.campaign then persist", wait, names)
		}
	}

	m := scrapeMetrics(t, ts)
	for _, row := range []string{
		`simd_cache_hits_total{cache="campaign"} 2`,
		`simd_cache_misses_total{cache="campaign"} 1`,
		`simd_jobs_finished_total{state="done"} 3`,
		`simd_job_stage_seconds_count{stage="persist"} 3`,
		`simd_job_stage_seconds_count{stage="execute"} 1`,
	} {
		if !strings.Contains(m, row) {
			t.Errorf("metrics lack %s:\n%s", row, grepMetrics(m, strings.SplitN(row, "{", 2)[0]))
		}
	}

	// Cached submissions from many clients at once each get their own
	// done job and an equal result.
	var wg sync.WaitGroup
	ids := make(chan string, 8*4)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := c.SubmitCampaign(ctx, quickSpec, i%2 == 0)
				if err != nil || got.Job.State != JobDone || !reflect.DeepEqual(got.Result, want) {
					t.Errorf("concurrent cached submission: %v %+v", err, got.Job)
					return
				}
				ids <- got.Job.ID
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("job id %s handed out twice", id)
		}
		seen[id] = true
	}
	if _, _, done, _ := srv.queue.Counts(); done != 3+int64(len(seen)) {
		t.Fatalf("done jobs %d after %d concurrent cached submissions, want %d", done, len(seen), 3+len(seen))
	}
}

// TestCachedCampaignCrashRecovery: a cached submission on a durable
// server writes exactly one journal record, its done record, and the
// job still answers with its result after a crash.
func TestCachedCampaignCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	key, err := quickSpec.CampaignKey()
	if err != nil {
		t.Fatal(err)
	}

	_, c1, ts1, _ := newDurableTestServer(t, dir, Options{})
	first, err := c1.SubmitCampaign(ctx, quickSpec, true)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c1.SubmitCampaign(ctx, quickSpec, false)
	if err != nil {
		t.Fatal(err)
	}
	checkBornDone(t, hit.Job, 4)
	if !reflect.DeepEqual(hit.Result, cachedCopy(first.Result)) {
		t.Fatalf("cached response differs from the first:\n got %+v\nwant %+v", hit.Result, first.Result)
	}
	// Crash: the 200 was the last thing the server did.
	ts1.Close()

	jnl, entries, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()
	var records []journal.Entry
	for _, e := range entries {
		if e.Job == hit.Job.ID {
			records = append(records, e)
		}
	}
	if len(records) != 1 {
		t.Fatalf("cached job wrote %d journal records, want 1: %+v", len(records), records)
	}
	if e := records[0]; e.State != journal.StateDone || e.Key != key || e.Done != 4 || e.Total != 4 {
		t.Fatalf("cached job's journal record %+v, want done 4/4 under the campaign key", e)
	}

	srv2, c2, _, rec := newDurableTestServer(t, dir, Options{})
	t.Cleanup(func() { srv2.Close(context.Background()) })
	if rec.Restored != 2 || rec.Requeued != 0 {
		t.Fatalf("recovery %+v, want both jobs restored and none requeued", rec)
	}
	// A restored job's result is read back from the store, so it is the
	// stored result: everything the 200 carried except its cached flag,
	// which says how that submission was served.
	got, err := c2.Job(ctx, hit.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	waited, err := c2.WaitResult(ctx, hit.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []CampaignResponse{got, waited} {
		if resp.Job.State != JobDone || resp.Job.Done != 4 || !reflect.DeepEqual(resp.Result, first.Result) {
			t.Fatalf("cached job after restart: %+v result %+v, want done with the stored result", resp.Job, resp.Result)
		}
	}
	var last JobInfo
	if err := c2.StreamJob(ctx, hit.Job.ID, func(info JobInfo) { last = info }); err != nil {
		t.Fatal(err)
	}
	if last.ID != hit.Job.ID || last.State != JobDone || last.Done != 4 {
		t.Fatalf("stream of the cached job after restart ended at %+v, want done 4/4", last)
	}
}

// TestCachedCampaignPeekDoesNotWait: while an identical campaign is
// still computing, a wait=0 submission is accepted at once instead of
// blocking on the fill, and its job then joins that fill.
func TestCachedCampaignPeekDoesNotWait(t *testing.T) {
	ctx := context.Background()
	srv, c, _ := newHitServer(t)
	key, err := quickSpec.CampaignKey()
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	t.Cleanup(func() {
		select {
		case <-release:
		default:
			close(release)
		}
	})
	filled := make(chan error, 1)
	go func() {
		_, _, err := srv.campaigns.GetOrCompute(key, func() (*CampaignResult, error) {
			<-release
			return srv.computeCampaign(ctx, "", key, quickSpec, func(int, int) {})
		})
		filled <- err
	}()
	for srv.campaigns.Len() == 0 {
		time.Sleep(time.Millisecond)
	}

	hits0, misses0 := srv.campaigns.Stats()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	resp, err := c.SubmitCampaign(sctx, quickSpec, false)
	if err != nil {
		t.Fatalf("submission during an in-flight fill: %v", err)
	}
	if resp.Result != nil || (resp.Job.State != JobQueued && resp.Job.State != JobRunning) {
		t.Fatalf("submission during an in-flight fill answered %+v, want an accepted job", resp.Job)
	}
	if hits1, misses1 := srv.campaigns.Stats(); hits1 != hits0 || misses1 != misses0 {
		t.Fatalf("the peek counted hits %d->%d misses %d->%d, want nothing", hits0, hits1, misses0, misses1)
	}

	close(release)
	if err := <-filled; err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitResult(ctx, resp.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Job.State != JobDone || final.Result == nil || !final.Result.Cached {
		t.Fatalf("job that joined the fill: %+v", final.Job)
	}
}

// TestCachedReplayCampaignDeletedTrace: a cached replay campaign is
// answered in the handler while its trace is stored; once the trace is
// deleted the submission fails as it always did, with the trace-store
// not-found error, and the cache serves nothing.
func TestCachedReplayCampaignDeletedTrace(t *testing.T) {
	srv, c := newReplayServer(t, Options{})
	ctx := context.Background()
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(4000))))
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Fidelity: campaign.FidelityReplay, Traces: []string{up.ID}, Configs: []string{"dram", "hbm"}}
	if _, err := c.SubmitCampaign(ctx, spec, true); err != nil {
		t.Fatal(err)
	}
	hit, err := c.SubmitCampaign(ctx, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	checkBornDone(t, hit.Job, 2)

	if err := c.DeleteTrace(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	hits0, _ := srv.campaigns.Stats()
	for _, wait := range []bool{true, false} {
		resp, err := c.SubmitCampaign(ctx, spec, wait)
		if err != nil {
			t.Fatal(err)
		}
		final, err := c.WaitResult(ctx, resp.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.Job.State != JobFailed || !strings.Contains(final.Job.Error, tracestore.ErrNotFound.Error()) || final.Result != nil {
			t.Fatalf("wait=%t: cached campaign over a deleted trace: %+v", wait, final.Job)
		}
	}
	if hits1, _ := srv.campaigns.Stats(); hits1 != hits0 {
		t.Fatalf("campaign cache hits %d->%d after the trace was deleted, want none", hits0, hits1)
	}
	var apiErr *APIError
	_, err = c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "dram"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("replay of the deleted trace: %v, want HTTP 404", err)
	}
}
