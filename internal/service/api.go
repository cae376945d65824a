package service

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/units"
)

// This file is the wire format of the simulation service: every JSON
// body the HTTP API accepts or returns, shared by the server, the Go
// client and cmd/simctl.

// RunRequest asks for one workload prediction, in the same vocabulary
// as the knlsim CLI flags ("hbm", "8GB", ...).
type RunRequest struct {
	Workload string `json:"workload"`
	Config   string `json:"config"`
	Size     string `json:"size"`
	Threads  int    `json:"threads"`
	SKU      string `json:"sku,omitempty"`
	// Fidelity selects the execution path: "model" (analytic, the
	// default) or "trace" (functional cache-hierarchy replay).
	Fidelity string `json:"fidelity,omitempty"`
}

// Point resolves the request into its canonical executable form.
func (r RunRequest) Point() (campaign.Point, error) {
	if r.Workload == "" {
		return campaign.Point{}, fmt.Errorf("service: request names no workload")
	}
	if r.Fidelity == campaign.FidelityCluster {
		// A cluster point needs a node count; the sweep endpoint owns
		// that axis.
		return campaign.Point{}, fmt.Errorf("service: cluster fidelity is served by POST /v1/cluster (or a cluster-fidelity campaign)")
	}
	if r.Fidelity == campaign.FidelityReplay {
		// A replay point needs a stored trace id; the replay endpoint
		// owns that vocabulary.
		return campaign.Point{}, fmt.Errorf("service: replay fidelity is served by POST /v1/replay (or a replay-fidelity campaign)")
	}
	var cfg engine.MemoryConfig
	if !(r.Fidelity == campaign.FidelityAdvise && r.Config == "") {
		var err error
		cfg, err = engine.ParseConfig(r.Config)
		if err != nil {
			return campaign.Point{}, err
		}
	}
	size, err := units.ParseBytes(r.Size)
	if err != nil {
		return campaign.Point{}, err
	}
	if size <= 0 {
		return campaign.Point{}, fmt.Errorf("service: size %q must be positive", r.Size)
	}
	threads := r.Threads
	if threads <= 0 {
		threads = 64
	}
	sku := r.SKU
	if sku == "" {
		sku = campaign.DefaultSKU
	}
	fidelity := r.Fidelity
	if fidelity == "" {
		fidelity = campaign.FidelityModel
	}
	if fidelity == campaign.FidelityTrace {
		// Trace replay is thread-independent; canonicalize so
		// requests differing only in threads share a cache entry.
		threads = 0
	}
	if fidelity == campaign.FidelityAdvise {
		// The advisor evaluates every memory mode itself; collapse the
		// config axis so spellings share an entry (mirrors Spec.Expand).
		cfg = engine.MemoryConfig{}
	}
	return campaign.Point{Workload: r.Workload, Config: cfg, Size: size, Threads: threads, SKU: sku, Fidelity: fidelity}, nil
}

// RunResponse is one executed point. Config and Size are echoed in
// canonical form, Key is the content address under which the result
// is cached, and Unavailable carries the paper's "no bar" reason when
// the configuration cannot run.
type RunResponse struct {
	Workload    string                  `json:"workload"`
	Config      string                  `json:"config"`
	Size        string                  `json:"size"`
	Threads     int                     `json:"threads"`
	SKU         string                  `json:"sku"`
	Fidelity    string                  `json:"fidelity"`
	Key         string                  `json:"key"`
	Metric      string                  `json:"metric"`
	Value       float64                 `json:"value"`
	Unavailable string                  `json:"unavailable,omitempty"`
	Trace       *campaign.TraceStats    `json:"trace,omitempty"`
	Advice      *campaign.AdviceSummary `json:"advice,omitempty"`
	Cluster     *campaign.ClusterStats  `json:"cluster,omitempty"`
	Nodes       int                     `json:"nodes,omitempty"`
	TraceID     string                  `json:"trace_id,omitempty"`
	Cached      bool                    `json:"cached"`
	ElapsedMS   float64                 `json:"elapsed_ms"`
}

// runResponse converts an executed outcome, whose point's key is key,
// to the wire form.
func runResponse(o campaign.Outcome, key string, cached bool, elapsedMS float64) RunResponse {
	fidelity := o.Point.Fidelity
	if fidelity == "" {
		fidelity = campaign.FidelityModel
	}
	return RunResponse{
		Workload:    o.Point.Workload,
		Config:      o.Point.Config.String(),
		Size:        o.Point.Size.String(),
		Threads:     o.Point.Threads,
		SKU:         o.Point.SKU,
		Fidelity:    fidelity,
		Key:         key,
		Metric:      o.Metric,
		Value:       o.Value,
		Unavailable: o.Unavailable,
		Trace:       o.Trace,
		Advice:      o.Advice,
		Cluster:     o.Cluster,
		Nodes:       o.Point.Nodes,
		TraceID:     o.Point.TraceID,
		Cached:      cached,
		ElapsedMS:   elapsedMS,
	}
}

// ExperimentResult is one paper experiment run as part of a campaign.
type ExperimentResult struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Rendered string `json:"rendered,omitempty"`
	CSV      string `json:"csv,omitempty"`
	Error    string `json:"error,omitempty"`
}

// CampaignResult is a completed campaign: every point outcome, the
// aggregate tables, and cache accounting.
type CampaignResult struct {
	Key         string             `json:"key"`
	Name        string             `json:"name,omitempty"`
	Expanded    int                `json:"expanded"` // raw cross-product size
	Points      int                `json:"points"`   // after deduplication
	CacheHits   int                `json:"cache_hits"`
	Cached      bool               `json:"cached"` // whole campaign served from cache
	Results     []RunResponse      `json:"results,omitempty"`
	Experiments []ExperimentResult `json:"experiments,omitempty"`
	Tables      []string           `json:"tables,omitempty"`
	ElapsedMS   float64            `json:"elapsed_ms"`
}

// CampaignResponse is the submit/poll envelope: the job record plus
// the result once it exists.
type CampaignResponse struct {
	Job    JobInfo         `json:"job"`
	Result *CampaignResult `json:"result,omitempty"`
}

// WorkloadInfo is one row of GET /v1/workloads.
type WorkloadInfo struct {
	Name     string `json:"name"`
	Class    string `json:"class"`
	Pattern  string `json:"pattern"`
	MaxScale string `json:"max_scale"`
	Metric   string `json:"metric"`
}

// ExperimentInfo is one row of GET /v1/experiments.
type ExperimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// apiError is the uniform error envelope. RequestID carries the
// request's correlation key so a client can quote it when reporting a
// failure; it is empty only when the handler ran outside the
// middleware stack (direct unit-test invocation).
type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

// RenderTimings renders a job's stage timeline the way simctl prints
// it with -timings: one row per completed span plus the derived
// queue/run split.
func RenderTimings(info JobInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s (%s) state=%s", info.ID, info.Kind, info.State)
	if info.RequestID != "" {
		fmt.Fprintf(&b, " request_id=%s", info.RequestID)
	}
	b.WriteString("\n")
	if len(info.Timeline) == 0 {
		b.WriteString("no completed stages yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %-27s %12s\n", "stage", "start", "ms")
	for _, span := range info.Timeline {
		fmt.Fprintf(&b, "%-12s %-27s %12.3f\n", span.Stage, span.Start.Format(time.RFC3339Nano), span.MS)
	}
	if info.QueueMS > 0 || info.RunMS > 0 {
		fmt.Fprintf(&b, "queued %.3f ms, ran %.3f ms\n", info.QueueMS, info.RunMS)
	}
	return b.String()
}

// RenderSpanTree renders an execution trace's span tree the way
// simctl prints it: one row per span, indented by depth, children
// under their parents in start order.
func RenderSpanTree(t obs.TraceData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s", t.ID)
	if t.Name != "" {
		fmt.Fprintf(&b, " (%s)", t.Name)
	}
	if t.MS > 0 {
		fmt.Fprintf(&b, " %.3f ms", t.MS)
	}
	if t.Dropped > 0 {
		fmt.Fprintf(&b, " [%d spans dropped]", t.Dropped)
	}
	b.WriteString("\n")
	children := make(map[int][]obs.SpanData)
	byID := make(map[int]bool, len(t.Spans))
	for _, sp := range t.Spans {
		byID[sp.ID] = true
	}
	var roots []obs.SpanData
	for _, sp := range t.Spans {
		if sp.Parent != 0 && byID[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			// Orphans (parent dropped past the span cap) print at the
			// top level rather than vanishing.
			roots = append(roots, sp)
		}
	}
	order := func(s []obs.SpanData) {
		sort.Slice(s, func(i, j int) bool {
			if !s[i].Start.Equal(s[j].Start) {
				return s[i].Start.Before(s[j].Start)
			}
			return s[i].ID < s[j].ID
		})
	}
	var walk func(sp obs.SpanData, depth int)
	walk = func(sp obs.SpanData, depth int) {
		fmt.Fprintf(&b, "%s%-*s %12.3f ms", strings.Repeat("  ", depth), 24-2*depth, sp.Name, sp.MS)
		for _, a := range sp.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
		}
		if sp.Error {
			b.WriteString(" ERROR")
		}
		b.WriteString("\n")
		kids := children[sp.ID]
		order(kids)
		for _, kid := range kids {
			walk(kid, depth+1)
		}
	}
	order(roots)
	for _, sp := range roots {
		walk(sp, 0)
	}
	return b.String()
}
