package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/units"
)

func tracePoint(cfg engine.MemoryConfig, wl string, size units.Bytes) campaign.Point {
	return campaign.Point{
		Workload: wl, Config: cfg, Size: size, Threads: 64,
		SKU: campaign.DefaultSKU, Fidelity: campaign.FidelityTrace,
	}
}

func TestTracePointDeterministic(t *testing.T) {
	// Two independent executors must produce bit-identical trace
	// outcomes — the property that makes trace results cacheable.
	a, err := NewExecutor().RunPoint(context.Background(), tracePoint(engine.Cache, "GUPS", units.GB(8)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExecutor().RunPoint(context.Background(), tracePoint(engine.Cache, "GUPS", units.GB(8)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != b.Value || *a.Trace != *b.Trace {
		t.Fatalf("trace replay not deterministic:\n%+v\n%+v", a.Trace, b.Trace)
	}
	if a.Metric != "ns/access" || a.Value <= 0 {
		t.Fatalf("outcome %+v", a)
	}
	if a.Trace.Accesses == 0 {
		t.Fatal("no accesses replayed")
	}
}

func TestTraceLatencyOrdering(t *testing.T) {
	// For a random workload whose scaled footprint exceeds L2 but fits
	// the scaled MCDRAM, flat HBM must be slower than... no: per
	// access, HBM backing has higher idle latency than DRAM (§IV-A),
	// so DRAM-bound random access must beat HBM-bound. Cache mode
	// inserts the MCDRAM cache and, once the footprint fits it, most
	// accesses stop at MCDRAM latency.
	exec := NewExecutor()
	dram, err := exec.RunPoint(context.Background(), tracePoint(engine.DRAM, "GUPS", units.GB(8)))
	if err != nil {
		t.Fatal(err)
	}
	hbm, err := exec.RunPoint(context.Background(), tracePoint(engine.HBM, "GUPS", units.GB(8)))
	if err != nil {
		t.Fatal(err)
	}
	if dram.Value >= hbm.Value {
		t.Errorf("random access: DRAM %v ns/access should beat HBM %v (18%% idle-latency gap)",
			dram.Value, hbm.Value)
	}
}

func TestTraceSequentialBeatsRandom(t *testing.T) {
	exec := NewExecutor()
	seq, err := exec.RunPoint(context.Background(), tracePoint(engine.DRAM, "STREAM", units.GB(8)))
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := exec.RunPoint(context.Background(), tracePoint(engine.DRAM, "GUPS", units.GB(8)))
	if err != nil {
		t.Fatal(err)
	}
	// The line-stride stream never re-touches a line, so its win comes
	// from the stream prefetcher hiding fill latency, not from L1 hits.
	if seq.Value >= rnd.Value {
		t.Errorf("sequential %v ns/access should beat random %v (prefetcher + locality)", seq.Value, rnd.Value)
	}
}

func TestTraceFidelityOverHTTP(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	req := RunRequest{Workload: "GUPS", Config: "cache", Size: "4GB", Threads: 64, Fidelity: "trace"}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Fidelity != campaign.FidelityTrace || first.Trace == nil || first.Metric != "ns/access" {
		t.Fatalf("trace response %+v", first)
	}
	// The same request at model fidelity is a different point.
	model, err := c.Run(ctx, RunRequest{Workload: "GUPS", Config: "cache", Size: "4GB", Threads: 64})
	if err != nil {
		t.Fatal(err)
	}
	if model.Key == first.Key {
		t.Fatal("model and trace fidelities share a cache key")
	}
	if model.Cached {
		t.Fatal("model point incorrectly cached by the trace run")
	}
	// Repeat trace request: cache hit, identical payload.
	again, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Value != first.Value || *again.Trace != *first.Trace {
		t.Fatalf("trace repeat not served from cache: %+v vs %+v", again, first)
	}
	// Unknown fidelity is a request error.
	if _, err := c.Run(ctx, RunRequest{Workload: "GUPS", Config: "dram", Size: "1GB", Fidelity: "quantum"}); err == nil {
		t.Fatal("unknown fidelity accepted")
	}
}

func TestTraceCampaign(t *testing.T) {
	srv, c := newTestServer(t)
	spec := campaign.Spec{
		Fidelity:  "trace",
		Workloads: []string{"STREAM", "GUPS"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{"2GB", "8GB"},
	}
	resp, err := c.SubmitCampaign(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job %+v", resp.Job)
	}
	res := resp.Result
	if res.Points != 12 {
		t.Fatalf("points = %d, want 12", res.Points)
	}
	for _, r := range res.Results {
		if r.Fidelity != campaign.FidelityTrace || r.Trace == nil || r.Value <= 0 {
			t.Fatalf("trace campaign result %+v", r)
		}
	}
	// The campaign cache keeps the result as long as it lives: its
	// results slice must hold no spare slots.
	stored, ok := srv.campaigns.Peek(res.Key)
	if !ok {
		t.Fatal("campaign cache does not hold the result")
	}
	if len(stored.Results) != 12 || cap(stored.Results) != 12 {
		t.Errorf("stored results: len %d cap %d, want 12 and 12", len(stored.Results), cap(stored.Results))
	}
}

func TestTraceHybridAndInterleave(t *testing.T) {
	exec := NewExecutor()
	for _, cfg := range []engine.MemoryConfig{
		{Kind: engine.InterleaveFlat},
		{Kind: engine.Hybrid, HybridFlatFraction: 0.5},
	} {
		out, err := exec.RunPoint(context.Background(), tracePoint(cfg, "GUPS", units.GB(4)))
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		if out.Value <= 0 {
			t.Fatalf("%v: non-positive latency", cfg)
		}
	}
}

// shareSpec is a 12-point trace campaign: two workloads (sequential and
// random) times three memory configs times two sizes, one on each side
// of the scaled MCDRAM.
var shareSpec = campaign.Spec{
	Fidelity:  "trace",
	Workloads: []string{"STREAM", "GUPS"},
	Configs:   []string{"dram", "hbm", "cache"},
	Sizes:     []string{"2GB", "20GB"},
}

// TestTraceCampaignSharesStreams pins the per-stream grouping of trace
// campaigns: each stream is replayed once with one memory lane per
// config, every outcome still equals a single-point RunPoint exactly,
// and cache accounting stays per point.
func TestTraceCampaignSharesStreams(t *testing.T) {
	ctx := context.Background()
	points, _, err := shareSpec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor()
	want := map[string]campaign.Outcome{}
	for _, p := range points {
		if want[p.Key()], err = exec.RunPoint(ctx, p); err != nil {
			t.Fatal(err)
		}
	}
	check := func(res *CampaignResult) map[string]RunResponse {
		t.Helper()
		if res.Points != 12 || len(res.Results) != 12 {
			t.Fatalf("points = %d (%d results), want 12", res.Points, len(res.Results))
		}
		got := map[string]RunResponse{}
		for _, r := range res.Results {
			w, ok := want[r.Key]
			if !ok {
				t.Fatalf("unexpected point %s", r.Key)
			}
			if r.Value != w.Value || r.Trace == nil || *r.Trace != *w.Trace {
				t.Errorf("%s/%s/%s: grouped %+v != RunPoint %+v", r.Workload, r.Config, r.Size, r.Trace, w.Trace)
			}
			got[r.Key] = r
		}
		return got
	}

	t.Run("cold", func(t *testing.T) {
		const rid = "share-streams-1"
		_, c := newTestServer(t)
		c.RequestID = rid
		resp, err := c.SubmitCampaign(ctx, shareSpec, true)
		if err != nil {
			t.Fatal(err)
		}
		c.RequestID = ""
		if resp.Result.CacheHits != 0 {
			t.Errorf("first submission CacheHits = %d, want 0", resp.Result.CacheHits)
		}
		check(resp.Result)

		streams := map[string][]campaign.Outcome{}
		for _, p := range points {
			streams[TraceGroupKey(p)] = append(streams[TraceGroupKey(p)], want[p.Key()])
		}
		if len(streams) != 4 {
			t.Fatalf("%d streams, want 4", len(streams))
		}
		for _, members := range streams {
			byKind := map[engine.ConfigKind]*campaign.TraceStats{}
			for _, o := range members {
				a, b := members[0].Trace, o.Trace
				if a.Accesses != b.Accesses || a.L1HitRate != b.L1HitRate || a.L2HitRate != b.L2HitRate {
					t.Errorf("%s: stream members disagree above the memory system: %+v vs %+v", o.Point, a, b)
				}
				byKind[o.Point.Config.Kind] = o.Trace
			}
			d, h := byKind[engine.BindDRAM], byKind[engine.BindHBM]
			if d.MemReads != h.MemReads || d.MemWrites != h.MemWrites {
				t.Errorf("%s: dram/hbm traffic %d/%d vs %d/%d", members[0].Point.Workload, d.MemReads, d.MemWrites, h.MemReads, h.MemWrites)
			}
			if members[0].Point.Workload == "GUPS" && h.AvgLatencyNS <= d.AvgLatencyNS {
				t.Errorf("GUPS %v: hbm %v ns/access not slower than dram %v", members[0].Point.Size, h.AvgLatencyNS, d.AvgLatencyNS)
			}
		}

		tr, err := c.DebugTrace(ctx, rid)
		if err != nil {
			t.Fatal(err)
		}
		var lanes, shared int
		for _, sp := range tr.Spans {
			for _, a := range sp.Attrs {
				if sp.Name == "compute" && a.Key == "lanes" && a.Value == "3" {
					lanes++
				}
				if sp.Name == "compute" && a.Key == "shared" && a.Value == "true" {
					shared++
				}
			}
		}
		if lanes != 4 || shared != 8 {
			t.Errorf("compute spans: %d with lanes=3, %d shared, want 4 and 8", lanes, shared)
		}
	})

	t.Run("partially-cached", func(t *testing.T) {
		_, c := newTestServer(t)
		run, err := c.Run(ctx, RunRequest{Workload: "GUPS", Config: "dram", Size: "2GB", Fidelity: "trace"})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.SubmitCampaign(ctx, shareSpec, true)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Result.CacheHits != 1 {
			t.Errorf("CacheHits = %d, want 1", resp.Result.CacheHits)
		}
		for key, r := range check(resp.Result) {
			if r.Cached != (key == run.Key) {
				t.Errorf("%s/%s/%s: cached = %v", r.Workload, r.Config, r.Size, r.Cached)
			}
		}
	})

	t.Run("cancel-at-group-boundary", func(t *testing.T) {
		srv := NewServer(Options{Workers: 1, QueueDepth: 4})
		t.Cleanup(func() { _ = srv.Close(context.Background()) })
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// Cancel after the first member of the first group: the rest of
		// that group is already replayed, so it completes; no other
		// group starts.
		key, err := shareSpec.CampaignKey()
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = srv.runCampaign(cctx, "", key, shareSpec, func(done, _ int) {
			if done == 1 {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := srv.points.Len(); n != 3 {
			t.Errorf("%d points computed, want the 3 of the first group", n)
		}
	})
}

// TestPointGroupsLongestFirst pins the campaign schedule: a trace
// group's work is its clamped footprint's lines x tracePasses, a replay
// group's is its stored trace's length, every other point weighs 0,
// and groups run in descending work with ties in first-appearance
// order.
func TestPointGroupsLongestFirst(t *testing.T) {
	spec := campaign.Spec{
		Fidelity:  "trace",
		Workloads: []string{"STREAM", "GUPS"},
		Configs:   []string{"dram", "hbm"},
		// Below, inside, inside and above the footprint clamp.
		Sizes: []string{"512MB", "2GB", "20GB", "64GB"},
	}
	points, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	lines := func(foot units.Bytes) int64 { return int64(foot / units.CacheLine) }
	work := map[units.Bytes]int64{
		512 * units.MiB: lines(1*units.MiB) * tracePasses, // clamped up
		2 * units.GiB:   lines(2*units.MiB) * tracePasses,
		20 * units.GiB:  lines(20*units.MiB) * tracePasses,
		64 * units.GiB:  lines(32*units.MiB) * tracePasses, // clamped down
	}
	type stream struct {
		workload string
		size     units.Bytes
	}
	want := []stream{
		{"STREAM", 64 * units.GiB}, {"GUPS", 64 * units.GiB},
		{"STREAM", 20 * units.GiB}, {"GUPS", 20 * units.GiB},
		{"STREAM", 2 * units.GiB}, {"GUPS", 2 * units.GiB},
		{"STREAM", 512 * units.MiB}, {"GUPS", 512 * units.MiB},
	}
	groups := pointGroups(points, nil)
	if len(groups) != len(want) {
		t.Fatalf("%d groups, want %d", len(groups), len(want))
	}
	for i, g := range groups {
		p := g.stream[0]
		if got := (stream{p.Workload, p.Size}); got != want[i] {
			t.Errorf("group %d is %v, want %v", i, got, want[i])
		}
		if g.work != work[p.Size] {
			t.Errorf("group %d (%s %v): work %d, want %d", i, p.Workload, p.Size, g.work, work[p.Size])
		}
		if len(g.idx) != 2 || len(g.stream) != 2 {
			t.Errorf("group %d has %d members, want one per config", i, len(g.idx))
		}
		for j, k := range g.idx {
			if points[k] != g.stream[j] {
				t.Errorf("group %d member %d: index %d does not name its point", i, j, k)
			}
		}
	}

	// Replay groups weigh their stored trace's accesses; a point of
	// another fidelity weighs 0 and keeps its place after the streams.
	replay := func(id string, cfg engine.MemoryConfig) campaign.Point {
		return campaign.Point{TraceID: id, Config: cfg, SKU: campaign.DefaultSKU, Fidelity: campaign.FidelityReplay}
	}
	model := campaign.Point{Workload: "STREAM", Config: engine.MemoryConfig{Kind: engine.BindDRAM}, Size: units.GiB,
		Threads: 64, SKU: campaign.DefaultSKU, Fidelity: campaign.FidelityModel}
	dram, hbm := engine.MemoryConfig{Kind: engine.BindDRAM}, engine.MemoryConfig{Kind: engine.BindHBM}
	mixed := []campaign.Point{model, replay("short", dram), replay("short", hbm), replay("long", dram), replay("long", hbm), model}
	groups = pointGroups(mixed, map[string]int64{"short": 1000, "long": 50000})
	var got [][]int
	var works []int64
	for _, g := range groups {
		got = append(got, g.idx)
		works = append(works, g.work)
	}
	wantIdx := [][]int{{3, 4}, {1, 2}, {0}, {5}}
	wantWork := []int64{50000 * campaignReplayPasses, 1000 * campaignReplayPasses, 0, 0}
	if fmt.Sprint(got) != fmt.Sprint(wantIdx) || fmt.Sprint(works) != fmt.Sprint(wantWork) {
		t.Errorf("groups %v with work %v, want %v with %v", got, works, wantIdx, wantWork)
	}
}

// TestTraceCampaignRunsLongestGroupFirst: with one worker, a trace
// campaign replays its streams in descending footprint order, not in
// the spec's order (which lists each workload's 2GB size first).
func TestTraceCampaignRunsLongestGroupFirst(t *testing.T) {
	ctx := context.Background()
	points, _, err := shareSpec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	size := map[string]units.Bytes{}
	for _, p := range points {
		size[p.Key()] = p.Size
	}
	const rid = "longest-first-1"
	_, c := newReplayServer(t, Options{Workers: 1})
	c.RequestID = rid
	if _, err := c.SubmitCampaign(ctx, shareSpec, true); err != nil {
		t.Fatal(err)
	}
	c.RequestID = ""
	tr, err := c.DebugTrace(ctx, rid)
	if err != nil {
		t.Fatal(err)
	}
	keyOf := map[int]string{}
	for _, sp := range tr.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "cache.point" && a.Key == "key" {
				keyOf[sp.ID] = a.Value
			}
		}
	}
	var computes []obs.SpanData
	for _, sp := range tr.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "compute" && a.Key == "lanes" {
				computes = append(computes, sp)
			}
		}
	}
	sort.SliceStable(computes, func(i, j int) bool { return computes[i].Start.Before(computes[j].Start) })
	var got []units.Bytes
	for _, sp := range computes {
		got = append(got, size[keyOf[sp.Parent]])
	}
	want := []units.Bytes{20 * units.GiB, 20 * units.GiB, 2 * units.GiB, 2 * units.GiB}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stream replays ran by size %v, want %v", got, want)
	}
}
