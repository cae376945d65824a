package service

import (
	"bytes"
	"context"
	"sort"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// fixedLabels are the labels whose values belong to a family's shape
// (cache names, job outcomes, stages, quantiles), as opposed to values
// that vary with traffic or build (routes, status codes, versions).
var fixedLabels = map[string]bool{"cache": true, "state": true, "stage": true, "fidelity": true, "quantile": true}

// expositionInventory reduces a /metrics payload to its shape: one row
// per (family, TYPE, label names, fixed label values), sorted. Bucket,
// _sum and _count rows fold into their histogram family, and le is
// dropped.
func expositionInventory(t *testing.T, body string) []string {
	t.Helper()
	types := map[string]string{}
	rows := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, _ := parseSample(t, line)
		fam := histogramFamily(name, types)
		var parts []string
		for k, v := range labels {
			switch {
			case k == "le":
			case fixedLabels[k]:
				parts = append(parts, k+"="+v)
			default:
				parts = append(parts, k)
			}
		}
		sort.Strings(parts)
		rows[fam+" "+types[fam]+" {"+strings.Join(parts, ",")+"}"] = true
	}
	out := make([]string, 0, len(rows))
	for r := range rows {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// TestMetricsInventory pins the shape of /metrics on a durable server
// after one campaign, one replay and one experiment: the same families,
// types, label names and fixed label values as the hand-rendered
// exposition it replaced, plus the experiment cache's rows, which the
// old exposition never listed, and the per-cache disk-hit family of
// the durable second tier.
func TestMetricsInventory(t *testing.T) {
	_, c, ts, _ := newDurableTestServer(t, t.TempDir(), Options{})
	ctx := context.Background()
	spec := campaign.Spec{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}}
	if _, err := c.SubmitCampaign(ctx, spec, true); err != nil {
		t.Fatal(err)
	}
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(2000))))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Replay(ctx, ReplayRequest{Trace: up.ID, Config: "dram"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitCampaign(ctx, campaign.Spec{Experiments: []string{"table1"}}, true); err != nil {
		t.Fatal(err)
	}
	body := scrapeMetrics(t, ts)
	got := expositionInventory(t, body)
	if strings.Join(got, "\n") != strings.Join(metricsInventory, "\n") {
		t.Errorf("exposition inventory drifted:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(metricsInventory, "\n"))
	}
	help := map[string]string{}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			fam, text, _ := strings.Cut(rest, " ")
			if _, dup := help[fam]; dup {
				t.Errorf("family %s declared twice", fam)
			}
			help[fam] = text
		}
	}
	for fam, want := range metricsHelp {
		if help[fam] != want {
			t.Errorf("HELP %s = %q, want %q", fam, help[fam], want)
		}
	}
	for fam := range help {
		if _, ok := metricsHelp[fam]; !ok {
			t.Errorf("unexpected family %s", fam)
		}
	}
}

// metricsInventory is the exposition shape recorded from the
// hand-rendered /metrics, plus the three cache="experiment" rows and
// the simd_cache_disk_hits_total family.
var metricsInventory = []string{
	"simd_build_info gauge {go_version,revision}",
	"simd_cache_disk_hits_total counter {cache=advice}", // added: hits the durable result store served
	"simd_cache_disk_hits_total counter {cache=campaign}",
	"simd_cache_disk_hits_total counter {cache=cluster}",
	"simd_cache_disk_hits_total counter {cache=experiment}",
	"simd_cache_disk_hits_total counter {cache=point}",
	"simd_cache_disk_hits_total counter {cache=replay}",
	"simd_cache_entries gauge {cache=advice}",
	"simd_cache_entries gauge {cache=campaign}",
	"simd_cache_entries gauge {cache=cluster}",
	"simd_cache_entries gauge {cache=experiment}", // added: the experiment cache never reached the hand-rendered exposition
	"simd_cache_entries gauge {cache=point}",
	"simd_cache_entries gauge {cache=replay}",
	"simd_cache_hits_total counter {cache=advice}",
	"simd_cache_hits_total counter {cache=campaign}",
	"simd_cache_hits_total counter {cache=cluster}",
	"simd_cache_hits_total counter {cache=experiment}", // added: the experiment cache never reached the hand-rendered exposition
	"simd_cache_hits_total counter {cache=point}",
	"simd_cache_hits_total counter {cache=replay}",
	"simd_cache_misses_total counter {cache=advice}",
	"simd_cache_misses_total counter {cache=campaign}",
	"simd_cache_misses_total counter {cache=cluster}",
	"simd_cache_misses_total counter {cache=experiment}", // added: the experiment cache never reached the hand-rendered exposition
	"simd_cache_misses_total counter {cache=point}",
	"simd_cache_misses_total counter {cache=replay}",
	"simd_event_subscribers gauge {}",
	"simd_events_dropped_total counter {}",
	"simd_events_published_total counter {}",
	"simd_exec_traces gauge {}",
	"simd_exec_traces_pinned gauge {}",
	"simd_go_gc_cycles_total counter {}",
	"simd_go_gc_pause_seconds gauge {quantile=0.5}",
	"simd_go_gc_pause_seconds gauge {quantile=0.99}",
	"simd_go_gc_pause_seconds gauge {quantile=max}",
	"simd_go_goroutines gauge {}",
	"simd_go_heap_bytes gauge {}",
	"simd_go_sched_latency_seconds gauge {quantile=0.5}",
	"simd_go_sched_latency_seconds gauge {quantile=0.99}",
	"simd_go_sched_latency_seconds gauge {quantile=max}",
	"simd_http_request_seconds histogram {code,route}",
	"simd_job_stage_seconds histogram {stage=execute}",
	"simd_job_stage_seconds histogram {stage=persist}",
	"simd_job_stage_seconds histogram {stage=queue_wait}",
	"simd_jobs_finished_total counter {state=done}",
	"simd_jobs_finished_total counter {state=failed}",
	"simd_jobs_pending gauge {}",
	"simd_jobs_recovered_total counter {state=requeued}",
	"simd_jobs_recovered_total counter {state=restored}",
	"simd_jobs_running gauge {}",
	"simd_journal_entries gauge {}",
	"simd_journal_errors_total counter {}",
	"simd_journal_quarantined_bytes gauge {}",
	"simd_panics_total counter {}",
	"simd_point_compute_seconds histogram {fidelity=model}",
	"simd_queue_capacity gauge {}",
	"simd_queue_depth gauge {}",
	"simd_result_persist_errors_total counter {}",
	"simd_results_quarantined gauge {}",
	"simd_results_stored gauge {}",
	"simd_trace_store_bytes gauge {}",
	"simd_traces_stored gauge {}",
	"simd_uptime_seconds gauge {}",
}

// metricsHelp is every family's HELP text, recorded from the
// hand-rendered /metrics. Families declared but not yet sampled (a
// histogram nothing has observed) appear here too.
var metricsHelp = map[string]string{
	"simd_build_info":                  "Build metadata; the value is always 1.",
	"simd_cache_disk_hits_total":       "Cache hits served from the durable result store.",
	"simd_cache_entries":               "Cached entries resident.",
	"simd_cache_hits_total":            "Content-addressed cache hits.",
	"simd_cache_lookup_seconds":        "Content-addressed cache hit latency by cache.",
	"simd_cache_misses_total":          "Content-addressed cache misses.",
	"simd_event_subscribers":           "Live event-feed subscriptions.",
	"simd_events_dropped_total":        "Events coalesced or dropped by the slow-subscriber policy.",
	"simd_events_published_total":      "Events published on the live job feed.",
	"simd_exec_traces":                 "Execution traces retained for /debug/traces.",
	"simd_exec_traces_pinned":          "Traces pinned by tail sampling (errors and slow requests).",
	"simd_go_gc_cycles_total":          "Completed GC cycles.",
	"simd_go_gc_pause_seconds":         "GC stop-the-world pause latency quantiles since process start.",
	"simd_go_goroutines":               "Live goroutines.",
	"simd_go_heap_bytes":               "Live heap object bytes (runtime/metrics).",
	"simd_go_sched_latency_seconds":    "Goroutine scheduling latency quantiles since process start.",
	"simd_http_request_seconds":        "HTTP request latency by route and status code.",
	"simd_job_stage_seconds":           "Job stage latency: queue_wait, execute, persist.",
	"simd_jobs_finished_total":         "Jobs finished by outcome.",
	"simd_jobs_pending":                "Jobs waiting in the bounded queue.",
	"simd_jobs_recovered_total":        "Jobs recovered by boot replay.",
	"simd_jobs_running":                "Jobs currently executing.",
	"simd_journal_entries":             "Live entries in the job journal.",
	"simd_journal_errors_total":        "Journal appends that failed (non-fatal).",
	"simd_journal_quarantined_bytes":   "Torn-tail bytes quarantined at boot.",
	"simd_panics_total":                "Handler panics recovered by the middleware.",
	"simd_point_compute_seconds":       "Single-point compute latency by fidelity (cache misses only).",
	"simd_queue_capacity":              "Bound of the pending-job queue.",
	"simd_queue_depth":                 "Jobs waiting in the bounded queue right now.",
	"simd_result_persist_errors_total": "Result persists that failed (non-fatal).",
	"simd_results_quarantined":         "Corrupt result files moved aside when read.",
	"simd_results_stored":              "Durable results resident on disk.",
	"simd_trace_store_bytes":           "Encoded bytes in the trace store.",
	"simd_traces_stored":               "Traces resident in the durable store.",
	"simd_uptime_seconds":              "Time since the service started.",
}
