package service

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/units"
)

// TestClusterMatchesDirectIterate is the acceptance pin: the HTTP
// /v1/cluster answer must be identical — every row, every float — to
// an in-process cluster.New(...).Iterate run over the same node
// counts.
func TestClusterMatchesDirectIterate(t *testing.T) {
	_, c := newTestServer(t)
	nodes := []int{2, 4, 8, 12, 16}
	resp, err := c.Cluster(context.Background(), ClusterRequest{
		Workload: "MiniFE", Size: "120GB", Threads: 64, Nodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first sweep reported cached")
	}
	if len(resp.Rows) != len(nodes) {
		t.Fatalf("rows = %d, want %d", len(resp.Rows), len(nodes))
	}

	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := sys.Workload("MiniFE")
	if err != nil {
		t.Fatal(err)
	}
	global := units.GB(120)
	wantMin := 0
	for i, n := range nodes {
		cl, err := cluster.New(sys.Machine, n, cluster.Aries())
		if err != nil {
			t.Fatal(err)
		}
		row := resp.Rows[i]
		if row.Nodes != n || row.PerNodeSize != (global/units.Bytes(n)).String() {
			t.Fatalf("row %d echo wrong: %+v", i, row)
		}
		want, err := cl.Iterate(mdl, global, 64)
		if err != nil {
			if row.Unavailable == "" {
				t.Errorf("%d nodes: direct Iterate fails (%v) but service returned a result", n, err)
			}
			continue
		}
		if row.Unavailable != "" {
			t.Errorf("%d nodes: service unavailable (%s) but direct Iterate succeeds", n, row.Unavailable)
			continue
		}
		// Byte-identical: every float must match the direct run exactly.
		if row.ComputeNS != want.ComputeNS || row.HaloNS != want.HaloNS ||
			row.ReduceNS != want.ReduceNS || row.TotalNS != want.TotalNS ||
			row.Efficiency != want.Efficiency || row.Config != want.Config.String() {
			t.Errorf("%d nodes: service row %+v != direct %+v", n, row, want)
		}
		if fits := want.Config.Kind == engine.BindHBM; row.FitsHBM != fits {
			t.Errorf("%d nodes: FitsHBM = %v, direct config %v", n, row.FitsHBM, want.Config)
		}
		if row.FitsHBM && (wantMin == 0 || n < wantMin) {
			wantMin = n
		}
	}
	// The decomposition advisor: minimum HBM-fitting node count.
	if resp.MinHBMNodes != wantMin {
		t.Errorf("MinHBMNodes = %d, direct runs give %d", resp.MinHBMNodes, wantMin)
	}
	if wantMin == 0 {
		t.Error("sweep never reached the HBM sweet spot — test grid too small")
	}
	one, err := cluster.New(sys.Machine, 1, cluster.Aries())
	if err != nil {
		t.Fatal(err)
	}
	capacity, err := one.SweetSpot(global, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CapacityNodes != capacity {
		t.Errorf("CapacityNodes = %d, direct SweetSpot %d", resp.CapacityNodes, capacity)
	}
}

// TestClusterCampaignMatchesDirectIterate pins the campaign path the
// same way: cluster-fidelity campaign points must carry exactly the
// values of direct cluster runs.
func TestClusterCampaignMatchesDirectIterate(t *testing.T) {
	_, c := newTestServer(t)
	spec := campaign.Spec{
		Fidelity:  campaign.FidelityCluster,
		Workloads: []string{"MiniFE"},
		Sizes:     []string{"120GB"},
		Threads:   []int{64},
		Nodes:     []int{2, 4, 8, 12},
	}
	resp, err := c.SubmitCampaign(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job state %s (%s)", resp.Job.State, resp.Job.Error)
	}
	res := resp.Result
	if res == nil || res.Points != 4 {
		t.Fatalf("result %+v, want 4 points", res)
	}

	sys, err := core.NewSystem()
	if err != nil {
		t.Fatal(err)
	}
	mdl, err := sys.Workload("MiniFE")
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{2, 4, 8, 12} {
		got := res.Results[i]
		if got.Nodes != n || got.Fidelity != campaign.FidelityCluster {
			t.Fatalf("result %d echo wrong: %+v", i, got)
		}
		cl, err := cluster.New(sys.Machine, n, cluster.Aries())
		if err != nil {
			t.Fatal(err)
		}
		want, err := cl.Iterate(mdl, units.GB(120), 64)
		if err != nil {
			if got.Unavailable == "" {
				t.Errorf("%d nodes: direct fails (%v), service returned %v", n, err, got.Value)
			}
			continue
		}
		if got.Value != want.TotalNS || got.Cluster == nil || got.Cluster.TotalNS != want.TotalNS ||
			got.Cluster.Efficiency != want.Efficiency || got.Cluster.Config != want.Config.String() {
			t.Errorf("%d nodes: service %+v != direct %+v", n, got.Cluster, want)
		}
	}
	if len(res.Tables) != 1 {
		t.Fatalf("tables = %d, want 1 scaling table", len(res.Tables))
	}
	for _, want := range []string{"nodes", "per-node", "iter ms", "eff", "fits HBM"} {
		if !strings.Contains(res.Tables[0], want) {
			t.Errorf("scaling table missing %q:\n%s", want, res.Tables[0])
		}
	}
}

// TestClusterOverCapacityRendersDashRows: a decomposition whose
// per-node working set fits no configuration is a "no bar" row, not
// an error — the rest of the sweep still renders.
func TestClusterOverCapacityRendersDashRows(t *testing.T) {
	_, c := newTestServer(t)
	// 300 GB over 2 nodes = 150 GB per node: beyond even DDR. Over 8
	// nodes it fits DRAM.
	resp, err := c.Cluster(context.Background(), ClusterRequest{
		Workload: "MiniFE", Size: "300GB", Nodes: []int{2, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Rows[0].Unavailable == "" {
		t.Errorf("150 GB/node should be over capacity, got %+v", resp.Rows[0])
	}
	if resp.Rows[1].Unavailable != "" {
		t.Errorf("37.5 GB/node should run, got unavailable %q", resp.Rows[1].Unavailable)
	}
	rendered := RenderCluster(resp)
	var dashRow bool
	for _, line := range strings.Split(rendered, "\n") {
		if strings.HasPrefix(line, "2 ") && strings.Contains(line, "-") {
			dashRow = true
		}
	}
	if !dashRow {
		t.Errorf("over-capacity node count not rendered as dash row:\n%s", rendered)
	}
}

// TestClusterCacheHitsAcrossSpellings: the cluster cache is
// content-addressed over the resolved request, so "120GB" and
// "122880MB" (and reordered, duplicated node lists) share one entry.
func TestClusterCacheHitsAcrossSpellings(t *testing.T) {
	srv, c := newTestServer(t)
	ctx := context.Background()
	first, err := c.Cluster(ctx, ClusterRequest{
		Workload: "MiniFE", Size: "120GB", Nodes: []int{2, 12, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Cluster(ctx, ClusterRequest{
		Workload: "MiniFE", Size: "122880MB", Nodes: []int{8, 2, 12, 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Key != first.Key {
		t.Fatalf("respelled sweep: cached=%v key match=%v", again.Cached, again.Key == first.Key)
	}
	if h, _ := srv.clusters.Stats(); h != 1 {
		t.Fatalf("cluster cache hits = %d, want 1", h)
	}
	// A different interconnect is a different question.
	other, err := c.Cluster(ctx, ClusterRequest{
		Workload: "MiniFE", Size: "120GB", Nodes: []int{2, 8, 12},
		Interconnect: &InterconnectSpec{Name: "slow", LatencyNS: 5000, BandwidthGBs: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached || other.Key == first.Key {
		t.Fatal("custom interconnect must not share the Aries cache entry")
	}
	if other.Network != "slow" {
		t.Fatalf("network echo = %q", other.Network)
	}
}

func TestClusterBadRequests(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	for name, req := range map[string]ClusterRequest{
		"no workload":      {Size: "120GB"},
		"no size":          {Workload: "MiniFE"},
		"bad size":         {Workload: "MiniFE", Size: "wat"},
		"negative size":    {Workload: "MiniFE", Size: "-1GB"},
		"zero nodes":       {Workload: "MiniFE", Size: "120GB", Nodes: []int{0}},
		"negative nodes":   {Workload: "MiniFE", Size: "120GB", Nodes: []int{4, -1}},
		"unknown workload": {Workload: "NoSuch", Size: "120GB"},
		"unknown sku":      {Workload: "MiniFE", Size: "120GB", SKU: "9999"},
		"bad factor":       {Workload: "MiniFE", Size: "120GB", WorkingSetFactor: 0.5},
		"bad interconnect": {Workload: "MiniFE", Size: "120GB", Interconnect: &InterconnectSpec{LatencyNS: -1, BandwidthGBs: 10}},
	} {
		if _, err := c.Cluster(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("%s: err = %v, want HTTP 400", name, err)
		}
	}
	// /v1/run must point cluster fidelity at the sweep endpoint.
	if _, err := c.Run(ctx, RunRequest{Workload: "MiniFE", Size: "120GB", Fidelity: campaign.FidelityCluster}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("run with cluster fidelity: err = %v, want HTTP 400", err)
	}
}

// TestClusterMetricsRows: the cluster cache is visible on /metrics.
func TestClusterMetricsRows(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	req := ClusterRequest{Workload: "MiniFE", Size: "120GB", Nodes: []int{2, 8}}
	if _, err := c.Cluster(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Cluster(ctx, req); err != nil {
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
		`simd_cache_hits_total{cache="cluster"} 1`,
		`simd_cache_misses_total{cache="cluster"} 1`,
		`simd_cache_entries{cache="cluster"} 1`,
		`simd_http_request_seconds_count{route="POST /v1/cluster",code="200"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRenderClusterSummaries: the rendered sweep names both halves of
// the decomposition advisor's answer.
func TestRenderClusterSummaries(t *testing.T) {
	_, c := newTestServer(t)
	resp, err := c.Cluster(context.Background(), ClusterRequest{
		Workload: "MiniFE", Size: "120GB", Nodes: []int{2, 4, 8, 12, 16}, WorkingSetFactor: 1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderCluster(resp)
	for _, want := range []string{
		"cluster scaling for MiniFE, 120.0 GiB global",
		"Cray Aries",
		"<- fits HBM",
		"sub-problem first fits HBM at",
		"capacity rule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered sweep missing %q:\n%s", want, out)
		}
	}
}
