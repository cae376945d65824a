package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// syncBuffer is a race-safe log sink: the server's handler goroutines
// write access-log lines while the test reads them back.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var labelRe = regexp.MustCompile(`(\w+)="([^"]*)"`)

// parseSample splits `name{a="x",b="y"} 42` into the metric name, its
// label map and the sample value. An OpenMetrics exemplar suffix
// (` # {trace_id="..."} v ts`) is stripped before parsing.
func parseSample(t *testing.T, line string) (name string, labels map[string]string, value float64) {
	t.Helper()
	if i := strings.Index(line, " # {"); i >= 0 {
		line = line[:i]
	}
	labels = map[string]string{}
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		j := strings.LastIndexByte(line, '}')
		if j < i {
			t.Fatalf("unbalanced braces in %q", line)
		}
		for _, m := range labelRe.FindAllStringSubmatch(line[i+1:j], -1) {
			labels[m[1]] = m[2]
		}
		rest = strings.TrimSpace(line[j+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		t.Fatalf("bad value in %q: %v", line, err)
	}
	return name, labels, v
}

// histogramFamily strips the _bucket/_sum/_count suffix when the base
// name is a registered histogram family.
func histogramFamily(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// TestMetricsPrometheusFormat drives real traffic through the service
// and then validates the whole /metrics payload as Prometheus text:
// every sample's family declares HELP and TYPE before the first
// sample, and every histogram's buckets are cumulative, ordered by le,
// terminated by +Inf, with _count equal to the +Inf bucket.
func TestMetricsPrometheusFormat(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	// A miss then a hit (point + lookup histograms), a waited campaign
	// (stage histograms), and an unmatched path (the 404 label).
	for i := 0; i < 2; i++ {
		if _, err := c.Run(ctx, RunRequest{Workload: "STREAM", Config: "dram", Size: "1GB", Threads: 64}); err != nil {
			t.Fatal(err)
		}
	}
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"hbm"}, Sizes: []string{"2GB"}}
	if _, err := c.SubmitCampaign(ctx, spec, true); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	types := map[string]string{} // family -> declared type
	help := map[string]bool{}    // family -> HELP seen
	sampled := map[string]bool{} // family -> first sample seen
	type histSeries struct {
		les    []string
		counts []float64
		sum    bool
		count  float64
		hasCnt bool
	}
	hists := map[string]*histSeries{} // family + label set (minus le)

	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Bucket rows may carry an OpenMetrics exemplar; its trace_id
		// label must not split the series grouping below.
		if i := strings.Index(line, " # {"); i >= 0 {
			line = line[:i]
		}
		if strings.HasPrefix(line, "# HELP ") {
			fam := strings.Fields(line)[2]
			if sampled[fam] {
				t.Errorf("HELP for %s appears after its first sample", fam)
			}
			help[fam] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			fam := fields[2]
			if sampled[fam] {
				t.Errorf("TYPE for %s appears after its first sample", fam)
			}
			types[fam] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value := parseSample(t, line)
		fam := histogramFamily(name, types)
		sampled[fam] = true
		if !help[fam] {
			t.Errorf("sample %s has no preceding HELP for family %s", name, fam)
		}
		if types[fam] == "" {
			t.Errorf("sample %s has no preceding TYPE for family %s", name, fam)
		}
		if types[fam] != "histogram" {
			continue
		}
		// Key histogram series by family plus labels without le.
		le := labels["le"]
		delete(labels, "le")
		var kb strings.Builder
		kb.WriteString(fam)
		for _, m := range labelRe.FindAllStringSubmatch(line, -1) {
			if m[1] != "le" {
				kb.WriteString("|" + m[1] + "=" + m[2])
			}
		}
		h := hists[kb.String()]
		if h == nil {
			h = &histSeries{}
			hists[kb.String()] = h
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			h.les = append(h.les, le)
			h.counts = append(h.counts, value)
		case strings.HasSuffix(name, "_sum"):
			h.sum = true
		case strings.HasSuffix(name, "_count"):
			h.count, h.hasCnt = value, true
		}
	}

	// The traffic above must have produced at least these series.
	for _, fam := range []string{
		"simd_http_request_seconds", "simd_job_stage_seconds",
		"simd_point_compute_seconds", "simd_cache_lookup_seconds",
	} {
		if types[fam] != "histogram" {
			t.Errorf("family %s not declared as a histogram (type %q)", fam, types[fam])
		}
	}
	if len(hists) == 0 {
		t.Fatal("no histogram series rendered")
	}
	for key, h := range hists {
		if len(h.les) == 0 {
			t.Errorf("%s: no buckets", key)
			continue
		}
		if h.les[len(h.les)-1] != "+Inf" {
			t.Errorf("%s: last bucket le=%q, want +Inf", key, h.les[len(h.les)-1])
		}
		prevLe := -1.0
		for i, le := range h.les[:len(h.les)-1] {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Errorf("%s: unparsable le %q", key, le)
				continue
			}
			if b <= prevLe {
				t.Errorf("%s: le %q not ascending", key, le)
			}
			prevLe = b
			if i > 0 && h.counts[i] < h.counts[i-1] {
				t.Errorf("%s: bucket counts not cumulative at le=%q", key, le)
			}
		}
		if !h.sum {
			t.Errorf("%s: missing _sum", key)
		}
		if !h.hasCnt {
			t.Errorf("%s: missing _count", key)
		} else if inf := h.counts[len(h.counts)-1]; h.count != inf {
			t.Errorf("%s: _count %v != +Inf bucket %v", key, h.count, inf)
		}
	}
}

// TestRequestTracingEndToEnd is the acceptance test: one cold
// POST /v1/campaigns?wait=1 must be fully reconstructable from
// observability output alone — the access log carries the request ID
// and route, the job record carries the same ID plus a stage timeline
// with derived queue/run durations, the journal records link back via
// the same ID, and the histograms saw the request, its stages and its
// point computations.
func TestRequestTracingEndToEnd(t *testing.T) {
	const rid = "obs-e2e-1"
	dir := t.TempDir()
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	srv, c, ts, _ := newDurableTestServer(t, dir, Options{Logger: logger})
	defer srv.Close(context.Background())
	c.RequestID = rid

	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	resp, err := c.SubmitCampaign(context.Background(), spec, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Job.State != JobDone {
		t.Fatalf("job %+v, want done", resp.Job)
	}

	// 1. The job record carries the request ID, derived durations and
	// the full stage timeline.
	if resp.Job.RequestID != rid {
		t.Errorf("job request_id = %q, want %q", resp.Job.RequestID, rid)
	}
	if resp.Job.RunMS <= 0 {
		t.Errorf("job run_ms = %v, want > 0", resp.Job.RunMS)
	}
	if resp.Job.QueueMS < 0 {
		t.Errorf("job queue_ms = %v, want >= 0", resp.Job.QueueMS)
	}
	stages := map[string]bool{}
	for _, span := range resp.Job.Timeline {
		stages[span.Stage] = true
		if span.Start.IsZero() {
			t.Errorf("stage %s has a zero start time", span.Stage)
		}
	}
	for _, want := range []string{"queue_wait", "execute", "persist"} {
		if !stages[want] {
			t.Errorf("timeline missing stage %q: %+v", want, resp.Job.Timeline)
		}
	}

	// 2. The journal links every record of the job to the request.
	jraw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jraw), fmt.Sprintf("%q:%q", "req", rid)) {
		t.Errorf("journal has no req=%s record", rid)
	}

	// 3. The access log has the request under the same ID with the
	// matched route.
	var logged map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if json.Unmarshal([]byte(line), &entry) != nil {
			t.Fatalf("access log line not JSON: %q", line)
		}
		if entry["request_id"] == rid && entry["route"] == "POST /v1/campaigns" {
			logged = entry
		}
	}
	if logged == nil {
		t.Fatalf("no access-log line for request %s:\n%s", rid, logBuf.String())
	}
	if logged["status"] != float64(http.StatusOK) {
		t.Errorf("access log status = %v, want 200", logged["status"])
	}
	if dur, ok := logged["dur_ms"].(float64); !ok || dur <= 0 {
		t.Errorf("access log dur_ms = %v, want > 0", logged["dur_ms"])
	}

	// 4. The histograms saw the request, its stages and the point
	// computation.
	body := scrapeMetrics(t, ts)
	for _, want := range []string{
		`simd_http_request_seconds_count{route="POST /v1/campaigns",code="200"} 1`,
		`simd_job_stage_seconds_count{stage="queue_wait"} 1`,
		`simd_job_stage_seconds_count{stage="execute"} 1`,
		`simd_job_stage_seconds_count{stage="persist"} 1`,
		`simd_point_compute_seconds_count{fidelity="model"} 1`,
		"simd_build_info{go_version=",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestErrorEnvelopeRequestID: error responses carry the correlation
// key so a client can quote it when reporting the failure.
func TestErrorEnvelopeRequestID(t *testing.T) {
	_, c := newTestServer(t)
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/run", strings.NewReader(`{"workload":""}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "err-probe-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "err-probe-9" {
		t.Errorf("echoed id = %q", got)
	}
	var envelope apiError
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.RequestID != "err-probe-9" {
		t.Errorf("envelope request_id = %q, want err-probe-9", envelope.RequestID)
	}
	if envelope.Error == "" {
		t.Error("envelope has no error message")
	}
}

// TestUnmatchedRouteLabel: 404s and 405s share one "unmatched" label
// so path scanners cannot mint unbounded label values.
func TestUnmatchedRouteLabel(t *testing.T) {
	_, c := newTestServer(t)
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/whatever"},
		{http.MethodDelete, "/v1/run"}, // method mismatch: 405
	} {
		req, _ := http.NewRequest(probe.method, c.BaseURL+probe.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	body := scrapeMetrics2(t, c)
	if !strings.Contains(body, `simd_http_request_seconds_count{route="unmatched",code="404"} 1`) {
		t.Errorf("404 latency not recorded under unmatched:\n%s", grepLines(body, "unmatched"))
	}
	if !strings.Contains(body, `simd_http_request_seconds_count{route="unmatched",code="405"} 1`) {
		t.Errorf("405 latency not recorded under unmatched:\n%s", grepLines(body, "unmatched"))
	}
}

// TestJobEndpointServesTimeline: GET /v1/jobs/{id} exposes the span
// timeline and derived fields over the wire.
func TestJobEndpointServesTimeline(t *testing.T) {
	_, c := newTestServer(t)
	ctx := context.Background()
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	sub, err := c.SubmitCampaign(ctx, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	polled, err := c.Job(ctx, sub.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(polled.Job.Timeline) < 2 {
		t.Fatalf("polled job timeline %+v, want at least queue_wait and execute", polled.Job.Timeline)
	}
	rendered := RenderTimings(polled.Job)
	for _, want := range []string{"queue_wait", "execute", polled.Job.ID} {
		if !strings.Contains(rendered, want) {
			t.Errorf("RenderTimings missing %q:\n%s", want, rendered)
		}
	}
}

func scrapeMetrics2(t *testing.T, c *Client) string {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func grepLines(body, substr string) string {
	var b strings.Builder
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			b.WriteString(line + "\n")
		}
	}
	return b.String()
}

// TestPprofExposed: the profiling endpoints serve through the stack.
func TestPprofExposed(t *testing.T) {
	_, c := newTestServer(t)
	resp, err := http.Get(c.BaseURL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status = %d", resp.StatusCode)
	}
}
