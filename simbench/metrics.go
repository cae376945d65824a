package main

import "fmt"

// The benchmark's definition: its workloads and metrics, the single
// source of BENCHMARK.json (simbench --describe prints it, and a test
// pins the committed file to it).

// metricDef is one metric. Bound is set on end-to-end metrics only: the
// share of the baseline median by which the metric may worsen before a
// change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type definitionFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// runSeconds is how long one run's traffic lasts.
const runSeconds = 15

func bound(b float64) *float64 { return &b }

var workloadDefs = []workloadDef{
	{"cold_trace_campaign", "closed loop, 1 client: never-seen 12-point trace campaigns (STREAM,GUPS x dram,hbm,cache; sizes both sides of the 16 MiB scaled MCDRAM); tracesim/cache simulation dominates"},
	{"upload_replay", "closed loop: upload a distinct 200k-access trace (NDJSON/CSV, 25% writes), replay it cold under dram,hbm,cache; the only tracestore ingest/decode work and writeback path"},
	{"warm_query_mix", fmt.Sprintf("open loop at %d req/s: warm and cold run/advise/cluster, cached 48-point campaign resubmits, /metrics scrapes; the request path (middleware, JSON, caches, fsync)", mixRate)},
}

// Every bound is the largest the benchmark contract allows, 0.25, except
// within_limit_frac's. On a shared 2-vCPU host the ten-seed spread
// (quartile distance over median) of the memory-bound workloads'
// latency ranged from 10% to 22% between sessions an hour apart;
// warm_query_mix stayed at 4-6%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"latency_p50_ms", "ms", "lower", bound(0.25)},
	{"latency_p90_ms", "ms", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"within_limit_frac", "ratio", "higher", bound(0.05)},
	{"live_heap_mib", "MiB", "lower", bound(0.25)},
}

var perLayerDefs = []metricDef{
	{Name: "service.transport_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_floor_us", Unit: "us", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_hit_ratio.point", Unit: "ratio", Better: "higher"},
	{Name: "service.cache_hit_ratio.campaign", Unit: "ratio", Better: "higher"},
	{Name: "service.cache_hit_ratio.advice", Unit: "ratio", Better: "higher"},
	{Name: "service.cache_hit_ratio.cluster", Unit: "ratio", Better: "higher"},
	{Name: "service.cache_hit_ratio.replay", Unit: "ratio", Better: "higher"},
	{Name: "service.json_encode_us", Unit: "us", Better: "lower"},
	{Name: "service.response_kib", Unit: "KiB", Better: "lower"},
	{Name: "service.metrics_scrape_us", Unit: "us", Better: "lower"},
	{Name: "service.upload_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "service.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.expand_us", Unit: "us", Better: "lower"},
	{Name: "campaign.tables_us", Unit: "us", Better: "lower"},
	{Name: "compute.model_point_us", Unit: "us", Better: "lower"},
	{Name: "compute.trace_point_ms", Unit: "ms", Better: "lower"},
	{Name: "tracesim.ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "tracesim.accesses_per_op", Unit: "count", Better: "lower"},
	{Name: "tracestore.ingest_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tracestore.ingest_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "tracestore.decode_ns_per_access", Unit: "ns", Better: "lower"},
	{Name: "journal.append_us", Unit: "us", Better: "lower"},
	{Name: "journal.put_us", Unit: "us", Better: "lower"},
	{Name: "journal.appends_per_op", Unit: "count", Better: "lower"},
	{Name: "journal.puts_per_op", Unit: "count", Better: "lower"},
	{Name: "placement.advise_us", Unit: "us", Better: "lower"},
	{Name: "cluster.iterate_us", Unit: "us", Better: "lower"},
	{Name: "driver.lag_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

func definition() definitionFile {
	return definitionFile{
		Command:    []string{"bash", "simbench/run.sh"},
		Paths:      []string{"simbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayerDefs,
	}
}
