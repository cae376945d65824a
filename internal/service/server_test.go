package service

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/units"
)

// newTestServer spins an in-process service over httptest.
func newTestServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv := NewServer(Options{Workers: 4, QueueDepth: 32})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	return srv, NewClient(ts.URL)
}

func TestHealthzAndWorkloads(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	wls, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(wls) != 7 {
		t.Fatalf("workloads = %d, want the paper's 7", len(wls))
	}
	exps, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(exps) != 15 {
		t.Fatalf("experiments = %d, want 15", len(exps))
	}
}

func TestRunMatchesDirectPredict(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()

	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Predict("STREAM", engine.HBM, units.GB(8), 64)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "hbm", Size: "8GB", Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Value != want {
		t.Fatalf("served %v, direct Predict %v — must be identical", resp.Value, want)
	}
	if resp.Cached {
		t.Fatal("first run reported cached")
	}
	// Same point, different spelling: cache hit, same value.
	again, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "MCDRAM", Size: "8192MB", Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Value != want || again.Key != resp.Key {
		t.Fatalf("respelled point: cached=%v value=%v key match=%v", again.Cached, again.Value, again.Key == resp.Key)
	}
}

func TestRunUnavailableIsAResult(t *testing.T) {
	_, c := newTestServer(t)
	// 64 GB cannot fit HBM's 16 GB: the paper prints no bar, the
	// service returns an unavailable outcome, not an error.
	resp, err := c.Run(context.Background(), RunRequest{Workload: "STREAM", Config: "hbm", Size: "64GB", Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Unavailable == "" {
		t.Fatalf("expected unavailable outcome, got value %v", resp.Value)
	}
}

func TestRunBadRequests(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	for _, req := range []RunRequest{
		{Workload: "NoSuchWorkload", Config: "dram", Size: "1GB"},
		{Workload: "STREAM", Config: "bogus", Size: "1GB"},
		{Workload: "STREAM", Config: "dram", Size: "wat"},
		{Workload: "STREAM", Config: "dram", Size: "1GB", SKU: "9999"},
	} {
		if _, err := c.Run(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("request %+v: err = %v, want HTTP 400", req, err)
		}
	}
}

// TestCampaignMatchesSerialRuns is the acceptance check: a campaign
// sweeping 2 workloads x 3 memory configs x a size grid must produce
// exactly the values the equivalent serial knlsim-style Predict calls
// produce.
func TestCampaignMatchesSerialRuns(t *testing.T) {
	_, c := newTestServer(t)
	spec := campaign.Spec{
		Name:      "acceptance",
		Workloads: []string{"STREAM", "GUPS"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{"2GB", "8GB", "24GB"},
		Threads:   []int{64, 128},
	}
	resp, err := c.SubmitCampaign(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job state %s (%s)", resp.Job.State, resp.Job.Error)
	}
	res := resp.Result
	if res == nil {
		t.Fatal("wait=1 returned no result")
	}
	if want := 2 * 3 * 3 * 2; res.Points != want || len(res.Results) != want {
		t.Fatalf("points=%d results=%d, want %d", res.Points, len(res.Results), want)
	}
	if len(res.Tables) != 4 { // 2 workloads x 2 thread counts
		t.Fatalf("tables = %d, want 4", len(res.Tables))
	}

	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	points, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		got := res.Results[i]
		want, err := sys.Predict(p.Workload, p.Config, p.Size, p.Threads)
		if err != nil {
			if got.Unavailable == "" {
				t.Errorf("%v: serial run not measurable (%v) but service returned %v", p, err, got.Value)
			}
			continue
		}
		if got.Unavailable != "" {
			t.Errorf("%v: service unavailable (%s) but serial run gives %v", p, got.Unavailable, want)
			continue
		}
		if got.Value != want {
			t.Errorf("%v: service %v != serial %v", p, got.Value, want)
		}
	}
}

func TestCampaignCacheHitOnResubmit(t *testing.T) {
	srv, c := newTestServer(t)
	spec := campaign.Spec{
		Workloads: []string{"STREAM"},
		Configs:   []string{"dram", "hbm"},
		SizeGrid:  &campaign.Grid{From: "1GB", To: "8GB", Points: 4},
	}
	ctx := context.Background()
	first, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.Cached {
		t.Fatal("first submission claims cached")
	}
	// Resubmit with reordered, respelled axes: the campaign key must
	// match and the whole result come from the campaign cache.
	respelled := campaign.Spec{
		Workloads: []string{"STREAM"},
		Configs:   []string{"MCDRAM", "ddr"},
		SizeGrid:  &campaign.Grid{From: "1024MB", To: "8GiB", Points: 4},
	}
	second, err := c.SubmitCampaign(ctx, respelled, true)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Result.Cached {
		t.Fatal("resubmission not served from campaign cache")
	}
	if second.Result.Key != first.Result.Key {
		t.Fatal("equivalent specs got different campaign keys")
	}
	if len(second.Result.Results) != len(first.Result.Results) {
		t.Fatal("cached result differs in size")
	}
	for i := range second.Result.Results {
		if second.Result.Results[i].Value != first.Result.Results[i].Value {
			t.Fatalf("cached value %d differs", i)
		}
	}
	hits, _ := srv.campaigns.Stats()
	if hits != 1 {
		t.Fatalf("campaign cache hits = %d, want 1", hits)
	}
}

func TestCampaignAsyncJobAndStream(t *testing.T) {
	_, c := newTestServer(t)
	spec := campaign.Spec{
		Workloads: []string{"XSBench"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{"1GB", "2GB", "4GB", "8GB"},
		Threads:   []int{64, 128, 192, 256},
	}
	ctx := context.Background()
	resp, err := c.SubmitCampaign(ctx, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.ID == "" {
		t.Fatal("no job id")
	}
	var last JobInfo
	if err := c.StreamJob(ctx, resp.Job.ID, func(info JobInfo) { last = info }); err != nil {
		t.Fatal(err)
	}
	if last.State != JobDone {
		t.Fatalf("stream ended in state %s (%s)", last.State, last.Error)
	}
	if last.Total != 48 || last.Done != last.Total {
		t.Fatalf("final progress %d/%d, want 48/48", last.Done, last.Total)
	}
	final, err := c.WaitResult(ctx, resp.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Result == nil || final.Result.Points != 48 {
		t.Fatal("missing or wrong job result")
	}
}

func TestCampaignWithExperiments(t *testing.T) {
	_, c := newTestServer(t)
	spec := campaign.Spec{Experiments: []string{"table1", "fig2"}}
	resp, err := c.SubmitCampaign(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	res := resp.Result
	if res == nil || len(res.Experiments) != 2 {
		t.Fatalf("experiments in result: %+v", res)
	}
	for _, e := range res.Experiments {
		if e.Error != "" || e.Rendered == "" || e.CSV == "" {
			t.Fatalf("experiment %s: err=%q rendered=%d bytes", e.ID, e.Error, len(e.Rendered))
		}
	}
	if !strings.Contains(res.Experiments[1].Rendered, "STREAM") {
		t.Fatal("fig2 rendering looks wrong")
	}
}

func TestCampaignBadSpecRejected(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	for _, spec := range []campaign.Spec{
		{},
		{Workloads: []string{"STREAM"}, Configs: []string{"bogus"}, Sizes: []string{"1GB"}},
	} {
		if _, err := c.SubmitCampaign(ctx, spec, true); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("spec %+v: err = %v, want HTTP 400", spec, err)
		}
	}
	// Unknown workload passes spec validation (names are resolved by
	// the executor) but must fail the job, not wedge it.
	resp, err := c.SubmitCampaign(ctx, campaign.Spec{
		Workloads: []string{"NoSuch"}, Configs: []string{"dram"}, Sizes: []string{"1GB"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobFailed || !strings.Contains(resp.Job.Error, "NoSuch") {
		t.Fatalf("job %+v, want failed with unknown-workload error", resp.Job)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	if _, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "dram", Size: "1GB", Threads: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "dram", Size: "1GB", Threads: 64}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.httpClient().Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"simd_uptime_seconds",
		`simd_http_request_seconds_count{route="POST /v1/run",code="200"} 2`,
		`simd_cache_hits_total{cache="point"} 1`,
		`simd_cache_misses_total{cache="point"} 1`,
		"simd_jobs_pending",
		"simd_jobs_finished_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestGracefulClose(t *testing.T) {
	srv := NewServer(Options{Workers: 2, QueueDepth: 8})
	ts := httptest.NewServer(srv.Handler())
	c := NewClient(ts.URL)
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	resp, err := c.SubmitCampaign(context.Background(), spec, false)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// The submitted job must have drained to a terminal state.
	info, ok := srv.queue.Get(resp.Job.ID)
	if !ok || (info.State != JobDone && info.State != JobFailed) {
		t.Fatalf("job after Close: %+v", info)
	}
}
