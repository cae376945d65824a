package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/service"
)

// startServer runs a full service over httptest and returns its URL.
func startServer(t *testing.T) string {
	t.Helper()
	srv := service.NewServer(service.Options{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	return ts.URL
}

func runCLI(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr strings.Builder
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestWorkloadsSubcommand(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "workloads")
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"STREAM", "DGEMM", "MiniFE", "GUPS", "Graph500", "XSBench", "TinyMemBench"} {
		if !strings.Contains(out, wl) {
			t.Errorf("workloads output missing %s:\n%s", wl, out)
		}
	}
}

func TestExperimentsSubcommand(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "experiments")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "fig2") || !strings.Contains(out, "table1") {
		t.Errorf("experiments output:\n%s", out)
	}
}

func TestRunSubcommand(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "run",
		"-workload", "STREAM", "-config", "hbm", "-size", "8GB", "-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GB/s =") {
		t.Errorf("run output:\n%s", out)
	}
	// Second identical run must be marked cached.
	out, _, err = runCLI(t, "-addr", url, "run",
		"-workload", "STREAM", "-config", "hbm", "-size", "8GB", "-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "(cached)") {
		t.Errorf("repeat run not cached:\n%s", out)
	}
}

func TestAdviseSubcommandWorkloadForm(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "advise",
		"-workload", "GUPS", "-size", "8GB", "-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"advice for GUPS at 8.0 GiB", "rank", "vs DDR", "vs cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("advise output missing %q:\n%s", want, out)
		}
	}
	// Identical request spelled differently must report the cache.
	out, _, err = runCLI(t, "-addr", url, "advise",
		"-workload", "GUPS", "-size", "8192MB", "-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served from cache") {
		t.Errorf("spelled-differently advise not cached:\n%s", out)
	}
}

func TestAdviseSubcommandStructsFile(t *testing.T) {
	url := startServer(t)
	structs := []service.StructureSpec{
		{Name: "csr-matrix", Footprint: "10GB", SeqBytes: 100e9},
		{Name: "io-buffers", Footprint: "20GB", SeqBytes: 0.5e9},
	}
	buf, _ := json.Marshal(structs)
	path := filepath.Join(t.TempDir(), "structs.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "-addr", url, "advise", "-structs", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var resp service.AdviseResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out)
	}
	if resp.Advice.Best == "" || len(resp.Advice.Options) < 4 {
		t.Fatalf("thin advice payload: %+v", resp.Advice)
	}
}

func TestAdviseCampaignFidelity(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "campaign",
		"-fidelity", "advise", "-workloads", "GUPS", "-sizes", "2GB,32GB", "-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 points", "recommended", "speedup vs all-DDR"} {
		if !strings.Contains(out, want) {
			t.Errorf("advise campaign missing %q:\n%s", want, out)
		}
	}
}

func TestAdviseSubcommandErrors(t *testing.T) {
	url := startServer(t)
	if _, _, err := runCLI(t, "-addr", url, "advise"); err == nil {
		t.Error("empty advise accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "advise", "-workload", "NoSuch", "-size", "1GB"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "advise", "-structs", "/no/such/file.json"); err == nil {
		t.Error("missing structs file accepted")
	}
}

func TestClusterSubcommand(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "cluster",
		"-workload", "MiniFE", "-size", "120GB", "-threads", "64", "-nodes", "2,4,8,12,16")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"cluster scaling for MiniFE, 120.0 GiB global",
		"nodes", "per-node", "iter ms", "eff",
		"<- fits HBM",
		"sub-problem first fits HBM at",
		"capacity rule",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster output missing %q:\n%s", want, out)
		}
	}
	// The respelled global size must be a cluster-cache hit.
	out, _, err = runCLI(t, "-addr", url, "cluster",
		"-workload", "MiniFE", "-size", "122880MB", "-threads", "64", "-nodes", "2,4,8,12,16")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served from cache") {
		t.Errorf("spelled-differently cluster sweep not cached:\n%s", out)
	}
}

func TestClusterSubcommandJSON(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "cluster",
		"-workload", "MiniFE", "-size", "120GB", "-nodes", "4,12", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var resp service.ClusterResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out)
	}
	if len(resp.Rows) != 2 || resp.Workload != "MiniFE" || resp.CapacityNodes < 1 {
		t.Fatalf("thin cluster payload: %+v", resp)
	}
}

func TestClusterCampaignFidelity(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "campaign",
		"-fidelity", "cluster", "-workloads", "MiniFE", "-sizes", "120GB", "-nodes", "2,4,8,12")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"4 points", "per-node", "fits HBM"} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster campaign missing %q:\n%s", want, out)
		}
	}
}

func TestClusterSubcommandErrors(t *testing.T) {
	url := startServer(t)
	if _, _, err := runCLI(t, "-addr", url, "cluster"); err == nil {
		t.Error("empty cluster request accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "cluster", "-workload", "NoSuch", "-size", "120GB"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "cluster", "-workload", "MiniFE", "-size", "120GB", "-nodes", "0"); err == nil {
		t.Error("zero node count accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "cluster", "-workload", "MiniFE", "-size", "120GB", "-nodes", "abc"); err == nil {
		t.Error("bad node list accepted")
	}
}

func TestCampaignSubcommandFlags(t *testing.T) {
	url := startServer(t)
	out, progress, err := runCLI(t, "-addr", url, "campaign",
		"-workloads", "STREAM,GUPS",
		"-configs", "dram,hbm,cache",
		"-sizes", "2GB,8GB,24GB",
		"-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "18 points") {
		t.Errorf("campaign summary wrong:\n%s", out)
	}
	for _, want := range []string{"STREAM, 64 threads", "GUPS, 64 threads", "DRAM", "HBM", "Cache Mode", "best"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign tables missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(progress, "done") {
		t.Errorf("no progress stream on stderr:\n%s", progress)
	}
	// Resubmission must report the campaign cache.
	out, _, err = runCLI(t, "-addr", url, "campaign",
		"-workloads", "GUPS,STREAM", // reordered: same campaign key
		"-configs", "cache,hbm,dram",
		"-sizes", "24GB,8GB,2GB",
		"-threads", "64")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served from campaign cache") {
		t.Errorf("resubmission not served from cache:\n%s", out)
	}
}

// TestCachedCampaignNeedsOneRequest: a cold campaign follows the job's
// progress stream and fetches its result; a cached resubmission, which
// the POST answers with a finished job and its result, is rendered
// from that one response.
func TestCachedCampaignNeedsOneRequest(t *testing.T) {
	srv := service.NewServer(service.Options{Workers: 2, QueueDepth: 8})
	h := srv.Handler()
	var mu sync.Mutex
	var seen []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Method+" "+r.URL.Path)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	requests := func() []string {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = nil
		return out
	}
	args := []string{"-addr", ts.URL, "campaign", "-workloads", "STREAM", "-configs", "dram,hbm", "-sizes", "2GB,24GB"}

	out, _, err := runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 points") || strings.Contains(out, "served from campaign cache") {
		t.Fatalf("cold campaign output:\n%s", out)
	}
	cold := requests()
	if len(cold) != 3 || !strings.HasSuffix(cold[1], "/stream") || !strings.HasSuffix(cold[2], "/result") {
		t.Errorf("cold campaign requests %q, want the POST, the stream and the result", cold)
	}

	out, _, err = runCLI(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served from campaign cache") || !strings.Contains(out, "4 points") {
		t.Fatalf("cached campaign output:\n%s", out)
	}
	if cached := requests(); len(cached) != 1 || cached[0] != "POST /v1/campaigns" {
		t.Errorf("cached campaign requests %q, want the POST alone", cached)
	}
}

func TestCampaignSubcommandSpecFile(t *testing.T) {
	url := startServer(t)
	spec := campaign.Spec{
		Name:      "from-file",
		Workloads: []string{"XSBench"},
		Configs:   []string{"dram", "hbm"},
		SizeGrid:  &campaign.Grid{From: "1GB", To: "4GB", Points: 3},
	}
	buf, _ := json.Marshal(spec)
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCLI(t, "-addr", url, "campaign", "-spec", path, "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res service.CampaignResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out)
	}
	if res.Points != 6 || res.Name != "from-file" {
		t.Fatalf("result %+v", res)
	}

	// A single grid flag merges with the file's grid instead of
	// replacing it: -grid-points 4 keeps the file's from/to bounds.
	out, _, err = runCLI(t, "-addr", url, "campaign", "-spec", path, "-grid-points", "4", "-json")
	if err != nil {
		t.Fatal(err)
	}
	var res4 service.CampaignResult
	if err := json.Unmarshal([]byte(out), &res4); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, out)
	}
	if res4.Points != 8 { // 1 workload x 2 configs x 4 grid points
		t.Fatalf("grid-points override: points = %d, want 8", res4.Points)
	}
}

func TestCampaignAsyncAndJobSubcommand(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "campaign",
		"-workloads", "STREAM", "-configs", "dram", "-sizes", "1GB", "-async")
	if err != nil {
		t.Fatal(err)
	}
	fields := strings.Fields(out)
	if len(fields) < 2 || fields[0] != "job" {
		t.Fatalf("async output: %q", out)
	}
	id := fields[1]
	// Poll until terminal via the job subcommand.
	deadlineOut := ""
	for i := 0; i < 200; i++ {
		jout, _, err := runCLI(t, "-addr", url, "job", id)
		if err != nil {
			t.Fatal(err)
		}
		deadlineOut = jout
		if strings.Contains(jout, `"state": "done"`) {
			return
		}
	}
	t.Fatalf("job never completed:\n%s", deadlineOut)
}

func TestExperimentCampaign(t *testing.T) {
	url := startServer(t)
	out, _, err := runCLI(t, "-addr", url, "campaign", "-experiments", "table1,latency")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TABLE1") || !strings.Contains(out, "LATENCY") {
		t.Errorf("experiment campaign output:\n%s", out)
	}
}

func TestBadInvocations(t *testing.T) {
	url := startServer(t)
	if _, _, err := runCLI(t, "-addr", url); err == nil {
		t.Error("no subcommand accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "frobnicate"); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "run", "-workload", "NoSuch", "-config", "dram", "-size", "1GB"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "job"); err == nil {
		t.Error("job without id accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "campaign", "-threads", "abc"); err == nil {
		t.Error("bad threads accepted")
	}
}

// startTraceServer runs a service with an isolated trace store.
func startTraceServer(t *testing.T) string {
	t.Helper()
	srv := service.NewServer(service.Options{Workers: 4, QueueDepth: 64, TraceDir: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Close(context.Background())
	})
	return ts.URL
}

func writeTraceFixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fix.csv")
	var b strings.Builder
	b.WriteString("addr,kind\n")
	for i := 0; i < 50000; i++ {
		kind := "R"
		if i%7 == 0 {
			kind = "W"
		}
		fmt.Fprintf(&b, "%d,%s\n", (i*2777)%(4<<20), kind)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceSubcommands(t *testing.T) {
	url := startTraceServer(t)
	fixture := writeTraceFixture(t)

	out, _, err := runCLI(t, "-addr", url, "trace", "upload", fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "stored") || !strings.Contains(out, "accesses:  50000") {
		t.Fatalf("upload output %q", out)
	}
	id := strings.Fields(strings.SplitN(out, "\n", 2)[0])[1]
	if len(id) != 64 {
		t.Fatalf("no content address in %q", out)
	}

	// Re-upload dedupes.
	out, _, err = runCLI(t, "-addr", url, "trace", "upload", fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deduplicated") {
		t.Fatalf("re-upload output %q", out)
	}

	out, _, err = runCLI(t, "-addr", url, "trace", "list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, id[:12]) || !strings.Contains(out, "footprint") {
		t.Fatalf("list output %q", out)
	}

	out, _, err = runCLI(t, "-addr", url, "trace", "show", id)
	if err != nil {
		t.Fatal(err)
	}
	var info service.TraceInfo
	if err := json.Unmarshal([]byte(out), &info); err != nil || info.ID != id {
		t.Fatalf("show output %q (%v)", out, err)
	}

	// Cold replay, then cached.
	out, _, err = runCLI(t, "-addr", url, "trace", "replay", "-id", id, "-config", "cache")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replay of trace") || !strings.Contains(out, "computed") || !strings.Contains(out, "avg latency") {
		t.Fatalf("replay output %q", out)
	}
	out, _, err = runCLI(t, "-addr", url, "trace", "replay", "-id", id, "-config", "cache")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served from cache") {
		t.Fatalf("second replay not cached: %q", out)
	}

	// Replay campaign over the stored trace.
	out, _, err = runCLI(t, "-addr", url, "campaign", "-fidelity", "replay",
		"-traces", id, "-configs", "dram,hbm,cache")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 points") || !strings.Contains(out, "replay of trace") || !strings.Contains(out, "best:") {
		t.Fatalf("replay campaign output %q", out)
	}

	// Delete; replay now fails with 404.
	if out, _, err = runCLI(t, "-addr", url, "trace", "delete", id); err != nil || !strings.Contains(out, "deleted") {
		t.Fatalf("delete: %q %v", out, err)
	}
	if _, _, err = runCLI(t, "-addr", url, "trace", "show", id); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("show after delete: %v", err)
	}
	if _, _, err = runCLI(t, "-addr", url, "trace", "replay", "-id", id, "-config", "dram"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("replay after delete: %v", err)
	}
}

func TestTraceSubcommandErrors(t *testing.T) {
	url := startTraceServer(t)
	if _, _, err := runCLI(t, "-addr", url, "trace"); err == nil {
		t.Fatal("bare trace subcommand accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "trace", "bogus"); err == nil {
		t.Fatal("unknown trace subcommand accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "trace", "upload", "/does/not/exist"); err == nil {
		t.Fatal("missing upload file accepted")
	}
	if _, _, err := runCLI(t, "-addr", url, "trace", "replay", "-id", "nope", "-config", "dram"); err == nil {
		t.Fatal("unknown trace id accepted")
	}
}

// TestRetryNarration: a 429 with Retry-After must produce the "server
// busy" stderr line, then the retried request must succeed.
func TestRetryNarration(t *testing.T) {
	var calls atomic.Int64
	backend := startServer(t)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"error":"service: job queue full"}`)
			return
		}
		resp, err := http.Get(backend + r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)

	out, errOut, err := runCLI(t, "-addr", proxy.URL, "workloads")
	if err != nil {
		t.Fatalf("retried request failed: %v", err)
	}
	if !strings.Contains(errOut, "server busy, retrying in 1s (attempt 1)") {
		t.Fatalf("stderr %q missing the busy narration", errOut)
	}
	if !strings.Contains(out, "STREAM") {
		t.Fatalf("workloads output after retry:\n%s", out)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("proxy saw %d calls, want 2", got)
	}
}

// TestFinalFailureSurfacesServerMessage: when retries are disabled and
// the server rejects, the command fails with the server's JSON error
// message intact — that error string is what main() prints before
// exiting non-zero.
func TestFinalFailureSurfacesServerMessage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprintf(w, `{"error":"service: unknown workload \"NOPE\""}`)
	}))
	t.Cleanup(srv.Close)

	_, errOut, err := runCLI(t, "-addr", srv.URL, "-retries", "-1", "run", "-workload", "NOPE")
	if err == nil {
		t.Fatal("rejected run reported success")
	}
	if !strings.Contains(err.Error(), `unknown workload "NOPE"`) || !strings.Contains(err.Error(), "HTTP 400") {
		t.Fatalf("error %q lost the server's message", err)
	}
	if strings.Contains(errOut, "retrying") {
		t.Fatalf("stderr %q shows retries despite -retries=-1", errOut)
	}
}
