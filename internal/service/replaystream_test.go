package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faultfs"
	"repro/internal/journal"
	"repro/internal/tracestore"
)

// These tests pin the stored miss streams: a replay drained from the
// stream a trace's first replay recorded equals a replay of the trace
// on a fresh server, and a damaged, stale or unwritable stream never
// yields a wrong result or a failed replay.

var upperSeq atomic.Int64

// replayUpper replays req and returns the response (with its
// per-request fields cleared) and the replay span's upper attribute:
// "stored" when the lanes drained from a miss stream, "replayed" when
// the trace was simulated.
func replayUpper(t *testing.T, c *Client, req ReplayRequest) (ReplayResponse, string) {
	t.Helper()
	ctx := context.Background()
	rid := fmt.Sprintf("upper-%d", upperSeq.Add(1))
	c.RequestID = rid
	resp, err := c.Replay(ctx, req)
	c.RequestID = ""
	if err != nil {
		t.Fatalf("replay %+v: %v", req, err)
	}
	if resp.Cached {
		t.Fatalf("replay %+v was served from cache", req)
	}
	tr, err := c.DebugTrace(ctx, rid)
	if err != nil {
		t.Fatal(err)
	}
	upper := ""
	for _, sp := range tr.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "replay" && a.Key == "upper" {
				upper = a.Value
			}
		}
	}
	resp.ElapsedMS = 0
	return resp, upper
}

// freshReplay replays req for the trace in body on a server of its own.
func freshReplay(t *testing.T, body []byte, req ReplayRequest) ReplayResponse {
	t.Helper()
	_, c := newReplayServer(t, Options{})
	up, err := c.UploadTrace(context.Background(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Trace = up.ID
	resp, upper := replayUpper(t, c, req)
	if upper != "replayed" {
		t.Fatalf("fresh replay %+v: upper=%q", req, upper)
	}
	return resp
}

// uploadReplayTrace starts a server holding body's trace.
func uploadReplayTrace(t *testing.T, body []byte, opt Options) (*Server, *Client, string) {
	t.Helper()
	srv, c := newReplayServer(t, opt)
	up, err := c.UploadTrace(context.Background(), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return srv, c, up.ID
}

// missStreamPath is where req's miss stream lives on srv.
func missStreamPath(t *testing.T, srv *Server, req ReplayRequest) string {
	t.Helper()
	q, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(srv.traceDir, "miss", q.trace+"-"+q.missVariant())
}

var streamConfigs = []string{"dram", "hbm", "cache", "hybrid:0.5", "interleave"}

// TestReplayDrainedStreamsMatchFreshReplays: for every pass count and
// prefetch setting, each config replayed after dram drains from the
// stream dram recorded and equals a fresh server's replay.
func TestReplayDrainedStreamsMatchFreshReplays(t *testing.T) {
	body := ndjsonBody(replayAccesses(30000))
	for _, passes := range []int{1, 2} {
		for _, prefetch := range []bool{true, false} {
			pf := prefetch
			_, c, id := uploadReplayTrace(t, body, Options{})
			for i, cfg := range streamConfigs {
				req := ReplayRequest{Trace: id, Config: cfg, Passes: passes, Prefetch: &pf}
				got, upper := replayUpper(t, c, req)
				if wantUpper := map[bool]string{true: "replayed", false: "stored"}[i == 0]; upper != wantUpper {
					t.Errorf("%s passes=%d prefetch=%t: upper=%q, want %q", cfg, passes, prefetch, upper, wantUpper)
				}
				if want := freshReplay(t, body, req); got != want {
					t.Errorf("%s passes=%d prefetch=%t: %+v != fresh %+v", cfg, passes, prefetch, got, want)
				}
			}
		}
	}
}

// TestReplayCampaignAfterDirectReplays: a replay campaign on a server
// whose trace already has a recorded stream (and cached replays)
// equals the same campaign on a fresh server.
func TestReplayCampaignAfterDirectReplays(t *testing.T) {
	ctx := context.Background()
	body := ndjsonBody(replayAccesses(30000))
	type point struct {
		config string
		value  float64
		trace  campaign.TraceStats
	}
	run := func(c *Client, id string) []point {
		resp, err := c.SubmitCampaign(ctx, campaign.Spec{
			Fidelity: campaign.FidelityReplay,
			Traces:   []string{id},
			Configs:  streamConfigs,
		}, true)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Job.State != JobDone || resp.Result.Points != len(streamConfigs) {
			t.Fatalf("campaign job %+v result %+v", resp.Job, resp.Result)
		}
		var out []point
		for _, r := range resp.Result.Results {
			if r.Trace == nil {
				t.Fatalf("%s: no trace stats", r.Config)
			}
			out = append(out, point{r.Config, r.Value, *r.Trace})
		}
		return out
	}
	_, fresh, id := uploadReplayTrace(t, body, Options{})
	want := run(fresh, id)

	_, c, _ := uploadReplayTrace(t, body, Options{})
	for _, cfg := range []string{"dram", "hbm"} {
		replayUpper(t, c, ReplayRequest{Trace: id, Config: cfg})
	}
	if got := run(c, id); !slices.Equal(got, want) {
		t.Errorf("after direct replays %+v\n!= fresh %+v", got, want)
	}
}

// TestReplayStreamFaults: a truncated, bit-flipped, other-version or
// other-geometry stream is detected, the replay falls back to the trace
// with the right result, and the stream is rewritten for the next one.
func TestReplayStreamFaults(t *testing.T) {
	body := ndjsonBody(replayAccesses(30000))
	want := map[string]ReplayResponse{}
	for _, cfg := range []string{"cache", "hbm"} {
		want[cfg] = freshReplay(t, body, ReplayRequest{Config: cfg})
	}
	damage := map[string]func(t *testing.T, st *tracestore.Store, id, variant, path string){
		"truncated": func(t *testing.T, _ *tracestore.Store, _, _, path string) {
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, st.Size()/2); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flip": func(t *testing.T, _ *tracestore.Store, _, _, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)*2/3] ^= 0x04
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-version": func(t *testing.T, _ *tracestore.Store, _, _, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[8]++ // the little-endian format version follows the 8-byte magic
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-geometry": func(t *testing.T, st *tracestore.Store, id, variant, _ string) {
			// Re-record the same entries under a header that claims an
			// 8-way L2: intact, but not this replay's hierarchy.
			r, err := st.OpenMisses(id, variant)
			if err != nil {
				t.Fatal(err)
			}
			h := r.Header()
			w, err := st.CreateMisses(id, variant)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for {
				b, ok := r.NextMisses()
				if !ok {
					break
				}
				w.Misses(b)
				if n += int64(len(b)); n == h.Warm {
					w.Warm()
				}
			}
			r.Close()
			h.Hierarchy.L2Ways = 8
			if err := w.Commit(h); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, fn := range damage {
		t.Run(name, func(t *testing.T) {
			srv, c, id := uploadReplayTrace(t, body, Options{})
			dram := ReplayRequest{Trace: id, Config: "dram"}
			if _, upper := replayUpper(t, c, dram); upper != "replayed" {
				t.Fatalf("first replay: upper=%q", upper)
			}
			q, _ := dram.Resolve()
			st, err := srv.traceStore()
			if err != nil {
				t.Fatal(err)
			}
			fn(t, st, id, q.missVariant(), missStreamPath(t, srv, dram))

			got, upper := replayUpper(t, c, ReplayRequest{Trace: id, Config: "cache"})
			if upper != "replayed" || got != want["cache"] {
				t.Fatalf("over a damaged stream: upper=%q, %+v != %+v", upper, got, want["cache"])
			}
			got, upper = replayUpper(t, c, ReplayRequest{Trace: id, Config: "hbm"})
			if upper != "stored" || got != want["hbm"] {
				t.Fatalf("after the rewrite: upper=%q, %+v != %+v", upper, got, want["hbm"])
			}
		})
	}
}

// TestReplayStreamDiskFull: a replay whose stream cannot be written
// (ENOSPC) still succeeds with the right result, files no stream and
// leaves no temp file; the next replay records it.
func TestReplayStreamDiskFull(t *testing.T) {
	body := ndjsonBody(replayAccesses(30000))
	want := freshReplay(t, body, ReplayRequest{Config: "dram"})
	fault := faultfs.New(nil)
	srv, c, id := uploadReplayTrace(t, body, Options{DataFS: fault})
	fault.SetErr(faultfs.ENOSPC)
	fault.FailAfterWrites(0, false)
	dram := ReplayRequest{Trace: id, Config: "dram"}
	got, upper := replayUpper(t, c, dram)
	if !fault.Tripped() || upper != "replayed" || got != want {
		t.Fatalf("replay on a full disk: tripped=%t upper=%q, %+v != %+v", fault.Tripped(), upper, got, want)
	}
	fault.Reset()
	if _, err := os.Stat(missStreamPath(t, srv, dram)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a failed recording filed a stream: %v", err)
	}
	entries, _ := os.ReadDir(srv.traceDir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".miss-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
	if _, upper := replayUpper(t, c, ReplayRequest{Trace: id, Config: "hbm"}); upper != "replayed" {
		t.Fatalf("second replay: upper=%q, want replayed", upper)
	}
	if _, upper := replayUpper(t, c, ReplayRequest{Trace: id, Config: "cache"}); upper != "stored" {
		t.Fatalf("third replay: upper=%q, want stored", upper)
	}
}

// TestTraceDeleteRemovesStreams: DELETE /v1/traces/{id} takes every
// recorded variant with the trace.
func TestTraceDeleteRemovesStreams(t *testing.T) {
	srv, c, id := uploadReplayTrace(t, ndjsonBody(replayAccesses(5000)), Options{})
	reqs := []ReplayRequest{{Trace: id, Config: "dram"}, {Trace: id, Config: "dram", Passes: 2}}
	for _, req := range reqs {
		replayUpper(t, c, req)
		if _, err := os.Stat(missStreamPath(t, srv, req)); err != nil {
			t.Fatalf("no stream recorded for %+v: %v", req, err)
		}
	}
	if err := c.DeleteTrace(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(filepath.Join(srv.traceDir, "miss"))
	if err != nil || len(left) != 0 {
		t.Fatalf("after delete: %d streams left (%v)", len(left), err)
	}
}

// TestRequestBodiesRejectUnknownFields: every JSON endpoint answers a
// field its request type does not declare with a 400 naming it, and
// accepts the same body without it.
func TestRequestBodiesRejectUnknownFields(t *testing.T) {
	_, c, id := uploadReplayTrace(t, ndjsonBody(replayAccesses(1000)), Options{})
	ts := c.BaseURL
	tests := []struct {
		name, path, body string
		unknown          string // the field the 400 must name; "" means the body is valid
	}{
		{"run valid", "/v1/run", `{"workload":"STREAM","config":"dram","size":"2GB","threads":64}`, ""},
		{"run unknown", "/v1/run", `{"workload":"STREAM","config":"dram","size":"2GB","threads":64,"thread":8}`, "thread"},
		{"advise valid", "/v1/advise", `{"workload":"GUPS","size":"8GB"}`, ""},
		{"advise unknown", "/v1/advise", `{"workload":"GUPS","size":"8GB","mode":"cache"}`, "mode"},
		{"cluster valid", "/v1/cluster", `{"workload":"STREAM","size":"2GB","nodes":[1,2]}`, ""},
		{"cluster unknown", "/v1/cluster", `{"workload":"STREAM","size":"2GB","node":[1,2]}`, "node"},
		{"replay valid", "/v1/replay", fmt.Sprintf(`{"trace":%q,"config":"dram"}`, id), ""},
		{"replay misspelt passes", "/v1/replay", fmt.Sprintf(`{"trace":%q,"config":"dram","pases":2}`, id), "pases"},
		{"replay deprecated shards", "/v1/replay", fmt.Sprintf(`{"trace":%q,"config":"hbm","shards":4}`, id), ""},
		{"campaign valid", "/v1/campaigns?wait=1", `{"workloads":["STREAM"],"configs":["dram"],"sizes":["2GB"]}`, ""},
		{"campaign unknown", "/v1/campaigns?wait=1", `{"workloads":["STREAM"],"config":["dram"],"sizes":["2GB"]}`, "config"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, err := http.Post(ts+tt.path, "application/json", strings.NewReader(tt.body))
			if err != nil {
				t.Fatal(err)
			}
			var msg bytes.Buffer
			msg.ReadFrom(resp.Body)
			resp.Body.Close()
			if tt.unknown == "" {
				if resp.StatusCode >= 300 {
					t.Fatalf("valid body: HTTP %d %s", resp.StatusCode, msg.String())
				}
				return
			}
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), fmt.Sprintf(`\"%s\"`, tt.unknown)) {
				t.Fatalf("unknown field %q: HTTP %d %s", tt.unknown, resp.StatusCode, msg.String())
			}
		})
	}
}

// TestReplayCacheReadsWholeResponseFiles: the replay cache now keeps
// only a replay's value and stats, but a result file holding a whole
// ReplayResponse, the form older builds persisted, still decodes and
// is served as the same wire response.
func TestReplayCacheReadsWholeResponseFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	srv, c, ts, _ := newDurableTestServer(t, dir, Options{})
	up, err := c.UploadTrace(ctx, bytes.NewReader(ndjsonBody(replayAccesses(5000))))
	if err != nil {
		t.Fatal(err)
	}
	req := ReplayRequest{Trace: up.ID, Config: "cache"}
	computed, err := c.Replay(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Overwrite the stored result with a whole response whose value
	// differs, so serving it proves the file was decoded.
	old := computed
	old.Value++
	old.Stats.L1Hits++
	results, err := journal.OpenResults(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	if err := results.Put("replay", old.Key, old); err != nil {
		t.Fatal(err)
	}
	_, c, _, _ = newDurableTestServer(t, dir, Options{})
	got, err := c.Replay(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatal("replay recomputed instead of reading the stored result")
	}
	got.Cached, got.ElapsedMS, old.ElapsedMS = false, 0, 0
	if got != old {
		t.Fatalf("served %+v, stored %+v", got, old)
	}
}
