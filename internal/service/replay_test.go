package service

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/tracesim"
)

// newReplayServer builds a server with an isolated trace store.
func newReplayServer(t *testing.T, opt Options) (*Server, *Client) {
	t.Helper()
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 16
	}
	if opt.TraceDir == "" {
		opt.TraceDir = t.TempDir()
	}
	srv := NewServer(opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	return srv, NewClient(ts.URL)
}

// replayAccesses is a deterministic mixed-locality stream that misses
// in L1/L2 often enough to exercise the memory-side cache.
func replayAccesses(n int) []tracesim.Access {
	rng := rand.New(rand.NewSource(99))
	out := make([]tracesim.Access, n)
	addr := uint64(0)
	for i := range out {
		if rng.Intn(3) == 0 {
			addr = uint64(rng.Intn(8 << 20))
		} else {
			addr += 64
		}
		kind := cache.Read
		if rng.Intn(5) == 0 {
			kind = cache.Write
		}
		out[i] = tracesim.Access{Addr: addr, Kind: kind}
	}
	return out
}

func ndjsonBody(accs []tracesim.Access) []byte {
	var b bytes.Buffer
	for _, a := range accs {
		kind := "R"
		if a.Kind == cache.Write {
			kind = "W"
		}
		fmt.Fprintf(&b, "{\"addr\": %d, \"kind\": %q}\n", a.Addr, kind)
	}
	return b.Bytes()
}

func TestTraceUploadReplayLifecycle(t *testing.T) {
	_, c := newReplayServer(t, Options{})
	ctx := context.Background()
	accs := replayAccesses(60000)
	body := ndjsonBody(accs)

	up, err := c.UploadTrace(ctx, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if up.Existed || up.ID == "" || up.Accesses != int64(len(accs)) {
		t.Fatalf("upload %+v", up)
	}
	if up.Reads+up.Writes != up.Accesses || up.Writes == 0 {
		t.Fatalf("read/write mix %d+%d != %d", up.Reads, up.Writes, up.Accesses)
	}
	if up.FootprintBytes <= 0 || up.Footprint == "" {
		t.Fatalf("no footprint in %+v", up)
	}

	// The same trace gzipped dedupes to the same content address.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(body); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	again, err := c.UploadTrace(ctx, &gz)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existed || again.ID != up.ID {
		t.Fatalf("gzip re-upload: existed=%v id=%s, want dedupe to %s", again.Existed, again.ID, up.ID)
	}

	list, err := c.Traces(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != up.ID {
		t.Fatalf("trace list %+v", list)
	}
	meta, err := c.Trace(ctx, up.ID)
	if err != nil {
		t.Fatal(err)
	}
	if meta.ID != up.ID || meta.Accesses != up.Accesses {
		t.Fatalf("meta %+v", meta)
	}

	// Cold replay, then a warm one served from the replay cache.
	req := ReplayRequest{Trace: up.ID, Config: "cache"}
	cold, err := c.Replay(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached || cold.Metric != "ns/access" || cold.Value <= 0 {
		t.Fatalf("cold replay %+v", cold)
	}
	if cold.Stats.Accesses != int64(len(accs)) {
		t.Fatalf("replayed %d accesses, want %d", cold.Stats.Accesses, len(accs))
	}
	warm, err := c.Replay(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Cached || warm.Value != cold.Value || warm.Stats != cold.Stats {
		t.Fatalf("warm replay not served from cache:\n%+v\n%+v", warm, cold)
	}

	// Delete, then everything 404s.
	if err := c.DeleteTrace(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Trace(ctx, up.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("metadata after delete: %v", err)
	}
	// A new replay variant (different passes => different key) must
	// now 404 instead of serving stale data.
	if _, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "cache", Passes: 2}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("replay after delete: %v", err)
	}
	if err := c.DeleteTrace(ctx, up.ID); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("second delete: %v", err)
	}
}

// TestReplayPinnedToScalarSimulator is the acceptance pin: POST
// /v1/replay must yield byte-identical results to an in-process
// scalar tracesim.Simulator run over the same accesses.
func TestReplayPinnedToScalarSimulator(t *testing.T) {
	srv, c := newReplayServer(t, Options{})
	ctx := context.Background()
	accs := replayAccesses(80000)
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(accs)))
	if err != nil {
		t.Fatal(err)
	}

	for _, cfgName := range []string{"dram", "hbm", "cache", "hybrid:0.5"} {
		resp, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: cfgName})
		if err != nil {
			t.Fatalf("%s: %v", cfgName, err)
		}

		mc, err := engine.ParseConfig(cfgName)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := srv.exec.replayHierarchy(campaign.DefaultSKU, mc)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := tracesim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range accs {
			sim.Access(a)
		}
		want := sim.Result()
		if resp.Stats != replayStats(want) {
			t.Fatalf("%s: service stats diverge from scalar simulator:\n got %+v\nwant %+v",
				cfgName, resp.Stats, replayStats(want))
		}
		if resp.Value != want.AvgLatencyNS() {
			t.Fatalf("%s: value %v != %v", cfgName, resp.Value, want.AvgLatencyNS())
		}
	}
}

// TestReplayIgnoresShardsField: the sharded replay hint is gone, and
// an old client's "shards" field is ignored like any unknown field: the
// request succeeds, computes the same Stats as one without it, and
// lands on the same cache entry.
func TestReplayIgnoresShardsField(t *testing.T) {
	ctx := context.Background()
	body := ndjsonBody(replayAccesses(80000))
	_, c := newReplayServer(t, Options{})
	up, err := c.UploadTrace(ctx, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+"/v1/replay", "application/json",
		strings.NewReader(fmt.Sprintf(`{"trace":%q,"config":"cache","passes":2,"shards":4}`, up.ID)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay with a shards field: HTTP %d", resp.StatusCode)
	}
	var legacy ReplayResponse
	if err := json.NewDecoder(resp.Body).Decode(&legacy); err != nil {
		t.Fatal(err)
	}
	if legacy.Cached {
		t.Fatal("first replay served from cache")
	}

	// A second server with a cold cache computes the same replay from a
	// request without the field.
	_, c2 := newReplayServer(t, Options{})
	if _, err := c2.UploadTrace(ctx, bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	plain, err := c2.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "cache", Passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cached || plain.Stats != legacy.Stats || plain.Key != legacy.Key {
		t.Fatalf("replay without shards %+v differs from replay with it %+v", plain, legacy)
	}
	again, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "cache", Passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Stats != legacy.Stats {
		t.Fatalf("replay without shards missed the entry computed with it: %+v", again)
	}
}

// TestReplayCampaignSharesStreams pins the grouping of replay
// campaigns, the stored-trace twin of TestTraceCampaignSharesStreams:
// one trace under three configs is opened, decoded and replayed once
// with a memory lane per config, and each point still equals a direct
// /v1/replay of its config.
func TestReplayCampaignSharesStreams(t *testing.T) {
	ctx := context.Background()
	body := ndjsonBody(replayAccesses(40000))
	configs := []string{"dram", "hbm", "cache"}

	// The reference: direct replays on a separate server.
	_, ref := newReplayServer(t, Options{})
	up, err := ref.UploadTrace(ctx, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]campaign.Outcome{}
	for _, cfg := range configs {
		r, err := ref.Replay(ctx, ReplayRequest{Trace: up.ID, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		want[r.Config] = replayOutcome(campaign.Point{}, replayResult{Value: r.Value, Stats: r.Stats}, false)
	}

	const rid = "share-replay-1"
	srv, c := newReplayServer(t, Options{})
	if _, err := c.UploadTrace(ctx, bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	c.RequestID = rid
	resp, err := c.SubmitCampaign(ctx, campaign.Spec{
		Fidelity: campaign.FidelityReplay,
		Traces:   []string{up.ID},
		Configs:  configs,
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	c.RequestID = ""
	if resp.Job.State != JobDone || resp.Result.Points != 3 || resp.Result.CacheHits != 0 {
		t.Fatalf("campaign job %+v result %+v", resp.Job, resp.Result)
	}
	for _, r := range resp.Result.Results {
		w, ok := want[r.Config]
		if !ok {
			t.Fatalf("unexpected config %s", r.Config)
		}
		if r.Value != w.Value || r.Trace == nil || *r.Trace != *w.Trace {
			t.Errorf("%s: grouped %+v != direct replay %+v", r.Config, r.Trace, w.Trace)
		}
	}
	// Each member still resolves through the replay cache.
	if hits, misses := srv.replays.Stats(); hits != 0 || misses != 3 || srv.replays.Len() != 3 {
		t.Errorf("replay cache: %d hits, %d misses, %d entries; want 0, 3, 3", hits, misses, srv.replays.Len())
	}

	tr, err := c.DebugTrace(ctx, rid)
	if err != nil {
		t.Fatal(err)
	}
	var lanes, shared, replays int
	for _, sp := range tr.Spans {
		if sp.Name == "replay" {
			replays++
		}
		for _, a := range sp.Attrs {
			if sp.Name == "compute" && a.Key == "lanes" && a.Value == "3" {
				lanes++
			}
			if sp.Name == "compute" && a.Key == "shared" && a.Value == "true" {
				shared++
			}
		}
	}
	if lanes != 1 || shared != 2 || replays != 1 {
		t.Errorf("spans: %d compute with lanes=3, %d shared, %d replay; want 1, 2, 1", lanes, shared, replays)
	}
}

// TestReplayCampaignRunsLongestTraceFirst: with one worker, a replay
// campaign over two stored traces replays the longer one first, though
// the spec names the shorter one first.
func TestReplayCampaignRunsLongestTraceFirst(t *testing.T) {
	ctx := context.Background()
	const rid = "replay-longest-first-1"
	_, c := newReplayServer(t, Options{Workers: 1})
	short, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(5000))))
	if err != nil {
		t.Fatal(err)
	}
	long, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(20000))))
	if err != nil {
		t.Fatal(err)
	}
	c.RequestID = rid
	resp, err := c.SubmitCampaign(ctx, campaign.Spec{
		Fidelity: campaign.FidelityReplay,
		Traces:   []string{short.ID, long.ID},
		Configs:  []string{"dram", "hbm"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	c.RequestID = ""
	if resp.Job.State != JobDone || resp.Result.Points != 4 {
		t.Fatalf("campaign job %+v result %+v", resp.Job, resp.Result)
	}
	tr, err := c.DebugTrace(ctx, rid)
	if err != nil {
		t.Fatal(err)
	}
	var replays []obs.SpanData
	for _, sp := range tr.Spans {
		if sp.Name == "replay" {
			replays = append(replays, sp)
		}
	}
	sort.SliceStable(replays, func(i, j int) bool { return replays[i].Start.Before(replays[j].Start) })
	var order []string
	for _, sp := range replays {
		for _, a := range sp.Attrs {
			if a.Key == "trace" {
				order = append(order, a.Value)
			}
		}
	}
	if want := []string{long.ID, short.ID}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("replayed traces in order %v, want the longer first %v", order, want)
	}
}

func TestReplayRequestErrors(t *testing.T) {
	_, c := newReplayServer(t, Options{})
	ctx := context.Background()
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(1000))))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		req  ReplayRequest
		want string
	}{
		{"unknown-trace", ReplayRequest{Trace: "deadbeef", Config: "dram"}, "404"},
		{"no-trace", ReplayRequest{Config: "dram"}, "names no trace"},
		{"bad-config", ReplayRequest{Trace: up.ID, Config: "quantum"}, "400"},
		{"bad-passes", ReplayRequest{Trace: up.ID, Config: "dram", Passes: 99}, "out of range"},
		{"negative-passes", ReplayRequest{Trace: up.ID, Config: "dram", Passes: -1}, "out of range"},
		{"unknown-sku", ReplayRequest{Trace: up.ID, Config: "dram", SKU: "9999"}, "400"},
	}
	for _, tc := range cases {
		if _, err := c.Replay(ctx, tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Malformed upload bodies are 400s.
	if _, err := c.UploadTrace(ctx, strings.NewReader("not,a\nvalid trace")); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("malformed upload: %v", err)
	}
	if _, err := c.UploadTrace(ctx, strings.NewReader("")); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("empty upload: %v", err)
	}
	// /v1/run cannot serve replay fidelity.
	if _, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "dram", Size: "1GB", Fidelity: "replay"}); err == nil ||
		!strings.Contains(err.Error(), "/v1/replay") {
		t.Errorf("run with replay fidelity: %v", err)
	}
}

// TestBodyLimits is the MaxBytesReader satellite: every JSON handler
// rejects oversized bodies with 413, and trace uploads have their
// own, larger, configurable cap.
func TestBodyLimits(t *testing.T) {
	_, c := newReplayServer(t, Options{MaxBodyBytes: 128, MaxTraceBytes: 512})
	ctx := context.Background()

	huge := strings.Repeat("x", 4096)
	jsonPosts := []struct {
		name string
		call func() error
	}{
		{"run", func() error {
			_, err := c.Run(ctx, RunRequest{Workload: huge, Config: "dram", Size: "1GB"})
			return err
		}},
		{"advise", func() error { _, err := c.Advise(ctx, AdviseRequest{Workload: huge, Size: "1GB"}); return err }},
		{"cluster", func() error { _, err := c.Cluster(ctx, ClusterRequest{Workload: huge, Size: "1GB"}); return err }},
		{"campaign", func() error {
			_, err := c.SubmitCampaign(ctx, campaign.Spec{Workloads: []string{huge}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}, false)
			return err
		}},
		{"replay", func() error { _, err := c.Replay(ctx, ReplayRequest{Trace: huge, Config: "dram"}); return err }},
	}
	for _, p := range jsonPosts {
		err := p.call()
		if err == nil || !strings.Contains(err.Error(), "413") {
			t.Errorf("%s: err %v, want HTTP 413", p.name, err)
		}
		if err != nil && !strings.Contains(err.Error(), "body limit") {
			t.Errorf("%s: 413 without a clear message: %v", p.name, err)
		}
	}
	// Within the JSON cap, requests still work.
	if _, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "dram", Size: "1GB"}); err != nil {
		t.Errorf("small run rejected: %v", err)
	}
	// The trace cap is separate (larger here than the JSON cap).
	if _, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(5000)))); err == nil ||
		!strings.Contains(err.Error(), "413") {
		t.Errorf("oversized trace upload: %v", err)
	}
	small := []tracesim.Access{{Addr: 0}, {Addr: 64}, {Addr: 128}}
	if _, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(small))); err != nil {
		t.Errorf("small trace upload rejected: %v", err)
	}
	// A gzip bomb — compressed well under the cap, decoded far over it
	// — must still 413: the cap is enforced on the decoded stream.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(bytes.Repeat([]byte("0,R\n"), 4096)); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if int64(gz.Len()) >= 512 {
		t.Fatalf("bomb did not compress under the cap: %d bytes", gz.Len())
	}
	if _, err := c.UploadTrace(ctx, &gz); err == nil || !strings.Contains(err.Error(), "413") {
		t.Errorf("gzip bomb upload: %v, want HTTP 413", err)
	}
}

func TestReplayCampaign(t *testing.T) {
	_, c := newReplayServer(t, Options{})
	ctx := context.Background()
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(40000))))
	if err != nil {
		t.Fatal(err)
	}

	spec := campaign.Spec{
		Fidelity: campaign.FidelityReplay,
		Traces:   []string{up.ID},
		Configs:  []string{"dram", "hbm", "cache"},
	}
	resp, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job %+v", resp.Job)
	}
	res := resp.Result
	if res.Points != 3 {
		t.Fatalf("points = %d, want 3", res.Points)
	}
	for _, r := range res.Results {
		if r.Fidelity != campaign.FidelityReplay || r.TraceID != up.ID || r.Trace == nil || r.Value <= 0 {
			t.Fatalf("replay campaign result %+v", r)
		}
	}
	if len(res.Tables) != 1 || !strings.Contains(res.Tables[0], "replay of trace") {
		t.Fatalf("replay tables %q", res.Tables)
	}
	// A direct /v1/replay of a swept point shares the replay cache.
	direct, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Cached {
		t.Fatal("direct replay after campaign not served from the shared replay cache")
	}
	// Identical resubmission is a campaign-cache hit.
	again, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Result.Cached {
		t.Fatal("replay campaign resubmission not served from the campaign cache")
	}
	// A campaign naming an unknown trace fails as one request error.
	bad, err := c.SubmitCampaign(ctx, campaign.Spec{
		Fidelity: campaign.FidelityReplay,
		Traces:   []string{"0000000000"},
		Configs:  []string{"dram"},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Job.State != JobFailed || !strings.Contains(bad.Job.Error, "unknown trace") {
		t.Fatalf("unknown-trace campaign job %+v", bad.Job)
	}
	// Deleting the trace must fail even the CACHED campaign — the
	// existence check runs before the campaign-cache lookup.
	if err := c.DeleteTrace(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	gone, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if gone.Job.State != JobFailed || !strings.Contains(gone.Job.Error, "unknown trace") {
		t.Fatalf("cached campaign served for a deleted trace: %+v", gone.Job)
	}
}

func TestReplayMetricsRows(t *testing.T) {
	srv, c := newReplayServer(t, Options{})
	ctx := context.Background()
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(2000))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "dram"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "dram"}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, nil)
	body := rec.Body.String()
	for _, want := range []string{
		`simd_cache_hits_total{cache="replay"} 1`,
		`simd_cache_misses_total{cache="replay"} 1`,
		`simd_cache_entries{cache="replay"} 1`,
		"simd_traces_stored 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTraceQuarantineMetric: a trace file damaged while the server was
// down is moved aside when the next server opens the store, and the
// scrape counts it.
func TestTraceQuarantineMetric(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	_, c := newReplayServer(t, Options{TraceDir: dir})
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(3000))))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, up.ID+".trc")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:8], 0o644); err != nil { // a torn header
		t.Fatal(err)
	}

	_, c2 := newReplayServer(t, Options{TraceDir: dir})
	if _, err := c2.Traces(ctx); err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics2(t, c2)
	for _, want := range []string{"simd_traces_quarantined 1\n", "simd_traces_stored 0\n"} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape lacks %q:\n%s", strings.TrimSpace(want), grepLines(body, "simd_traces"))
		}
	}
}
