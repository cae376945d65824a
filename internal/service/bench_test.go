package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/journal"
	"repro/internal/tracesim"
)

// benchTraceSpec is the headline cold/warm sweep: trace fidelity
// (functional cache-hierarchy replay, milliseconds per point), 2
// workloads x 3 paper configs x a 4-point geometric size grid = 24
// points. This is the expensive recurring query class the
// content-addressed cache amortizes.
func benchTraceSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "bench-trace",
		Fidelity:  campaign.FidelityTrace,
		Workloads: []string{"STREAM", "GUPS"},
		Configs:   []string{"dram", "hbm", "cache"},
		SizeGrid:  &campaign.Grid{From: "2GB", To: "16GB", Points: 4},
		Threads:   []int{64},
	}
}

// benchModelSpec is the analytic-model sweep: 192 sub-microsecond
// points, where serving cost is dominated by transport rather than
// compute.
func benchModelSpec() campaign.Spec {
	return campaign.Spec{
		Name:      "bench-model",
		Workloads: []string{"STREAM", "GUPS", "XSBench", "MiniFE"},
		Configs:   []string{"dram", "hbm", "cache"},
		SizeGrid:  &campaign.Grid{From: "1GB", To: "24GB", Points: 8},
		Threads:   []int{64, 128},
	}
}

func submitOnce(b *testing.B, c *Client, spec campaign.Spec) *CampaignResult {
	b.Helper()
	resp, err := c.SubmitCampaign(context.Background(), spec, true)
	if err != nil {
		b.Fatal(err)
	}
	if resp.Job.State != JobDone || resp.Result == nil {
		b.Fatalf("campaign did not complete: %+v", resp.Job)
	}
	return resp.Result
}

// benchCampaign measures end-to-end campaign service time over real
// HTTP: submit, execute (or hit the content-addressed cache),
// aggregate, respond.
//
//   - cold: every iteration runs against a fresh server, so every
//     point is computed.
//   - warm: iterations resubmit the same sweep to one server, so the
//     whole campaign is served from the campaign-level cache.
func benchCampaign(b *testing.B, spec campaign.Spec) {
	b.Run("ColdCache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := NewServer(Options{Workers: 4, QueueDepth: 32})
			ts := httptest.NewServer(srv.Handler())
			c := NewClient(ts.URL)
			b.StartTimer()

			res := submitOnce(b, c, spec)
			if res.Cached {
				b.Fatal("cold iteration served from cache")
			}

			b.StopTimer()
			ts.Close()
			_ = srv.Close(context.Background())
			b.StartTimer()
		}
	})

	b.Run("WarmCache", func(b *testing.B) {
		srv := NewServer(Options{Workers: 4, QueueDepth: 32})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			_ = srv.Close(context.Background())
		}()
		c := NewClient(ts.URL)
		submitOnce(b, c, spec) // warm the campaign cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := submitOnce(b, c, spec)
			if !res.Cached {
				b.Fatal("warm iteration not served from cache")
			}
		}
	})
}

// BenchmarkServeCampaign is the acceptance benchmark: a repeated
// trace-fidelity campaign must be served >= 10x faster from the
// result cache. The end-to-end numbers come from
// bash simbench/run.sh --workload cold_trace_campaign (cold) and
// --workload warm_query_mix (warm resubmits).
func BenchmarkServeCampaign(b *testing.B) {
	benchCampaign(b, benchTraceSpec())
}

// BenchmarkServeCampaignModel is the same harness over analytic
// points; it bounds the transport floor of a campaign round trip.
func BenchmarkServeCampaignModel(b *testing.B) {
	benchCampaign(b, benchModelSpec())
}

// BenchmarkServeRun measures the single-point fast path, cold vs
// cached, at both fidelities.
func BenchmarkServeRun(b *testing.B) {
	for _, fid := range []string{campaign.FidelityModel, campaign.FidelityTrace} {
		req := RunRequest{Workload: "GUPS", Config: "cache", Size: "8GB", Threads: 64, Fidelity: fid}

		b.Run(fid+"/ColdCache", func(b *testing.B) {
			srv := NewServer(Options{Workers: 2, QueueDepth: 16})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				_ = srv.Close(context.Background())
			}()
			c := NewClient(ts.URL)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Vary the size so every request is a distinct point
				// (threads won't do: trace fidelity canonicalizes the
				// thread axis away).
				r := req
				r.Size = fmt.Sprintf("%dMB", 4096+i)
				if _, err := c.Run(context.Background(), r); err != nil {
					b.Fatal(err)
				}
			}
		})

		b.Run(fid+"/WarmCache", func(b *testing.B) {
			srv := NewServer(Options{Workers: 2, QueueDepth: 16})
			ts := httptest.NewServer(srv.Handler())
			defer func() {
				ts.Close()
				_ = srv.Close(context.Background())
			}()
			c := NewClient(ts.URL)
			if _, err := c.Run(context.Background(), req); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := c.Run(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
				if !resp.Cached {
					b.Fatal("warm run not cached")
				}
			}
		})
	}
}

// BenchmarkReplayStored measures the stored-trace path end to end
// over real HTTP: ingest throughput (NDJSON upload into the durable
// store), a cold replay through the scaled cache hierarchy, and the
// warm replay served from the content-addressed replay cache. The
// end-to-end upload → replay numbers come from simbench's
// upload_replay workload (BENCHMARK.json).
func BenchmarkReplayStored(b *testing.B) {
	accs := benchReplayAccesses(200000)
	body := ndjsonBody(accs)

	b.Run("Ingest", func(b *testing.B) {
		srv := NewServer(Options{Workers: 2, QueueDepth: 16, TraceDir: b.TempDir()})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			_ = srv.Close(context.Background())
		}()
		c := NewClient(ts.URL)
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each iteration ingests a distinct stream (the previous
			// upload would otherwise dedupe into a no-op).
			b.StopTimer()
			variant := append([]byte(nil), body...)
			variant = append(variant, []byte(fmt.Sprintf("{\"addr\": %d}\n", 1<<30+i*64))...)
			b.StartTimer()
			if _, err := c.UploadTrace(context.Background(), bytes.NewReader(variant)); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("ColdReplay", func(b *testing.B) {
		// Fresh server (empty replay cache) per iteration; upload and
		// teardown stay outside the timer.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := NewServer(Options{Workers: 2, QueueDepth: 16, TraceDir: b.TempDir()})
			ts := httptest.NewServer(srv.Handler())
			c := NewClient(ts.URL)
			up, err := c.UploadTrace(context.Background(), bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()

			resp, err := c.Replay(context.Background(), ReplayRequest{Trace: up.ID, Config: "cache"})
			if err != nil {
				b.Fatal(err)
			}
			if resp.Cached {
				b.Fatal("cold replay served from cache")
			}

			b.StopTimer()
			ts.Close()
			_ = srv.Close(context.Background())
			b.StartTimer()
		}
	})

	b.Run("ColdCampaign", func(b *testing.B) {
		// One stored trace under dram, hbm and cache as a replay
		// campaign on a fresh server per iteration: the trace is
		// decoded and replayed once, with a memory lane per config.
		spec := campaign.Spec{Fidelity: campaign.FidelityReplay, Configs: []string{"dram", "hbm", "cache"}}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			srv := NewServer(Options{Workers: 2, QueueDepth: 16, TraceDir: b.TempDir()})
			ts := httptest.NewServer(srv.Handler())
			c := NewClient(ts.URL)
			up, err := c.UploadTrace(context.Background(), bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			spec.Traces = []string{up.ID}
			b.StartTimer()

			resp, err := c.SubmitCampaign(context.Background(), spec, true)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Result == nil || resp.Result.Points != 3 || resp.Result.CacheHits != 0 {
				b.Fatalf("cold replay campaign: %+v", resp.Job)
			}

			b.StopTimer()
			ts.Close()
			_ = srv.Close(context.Background())
			b.StartTimer()
		}
	})

	b.Run("WarmReplay", func(b *testing.B) {
		srv := NewServer(Options{Workers: 2, QueueDepth: 16, TraceDir: b.TempDir()})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			_ = srv.Close(context.Background())
		}()
		c := NewClient(ts.URL)
		up, err := c.UploadTrace(context.Background(), bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req := ReplayRequest{Trace: up.ID, Config: "cache"}
		if _, err := c.Replay(context.Background(), req); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := c.Replay(context.Background(), req)
			if err != nil {
				b.Fatal(err)
			}
			if !resp.Cached {
				b.Fatal("warm replay not cached")
			}
		}
	})
}

// BenchmarkDurableBoot measures NewDurableServer over a data directory
// holding n persisted point results. Boot reads the journal only, so
// its cost must not grow with n.
func BenchmarkDurableBoot(b *testing.B) {
	p, err := (RunRequest{Workload: "STREAM", Config: "hbm", Size: "8GB", Threads: 64}).Point()
	if err != nil {
		b.Fatal(err)
	}
	out, err := NewExecutor().RunPoint(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{200, 2000} {
		b.Run(fmt.Sprintf("results=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			results, err := journal.OpenResults(filepath.Join(dir, "results"))
			if err != nil {
				b.Fatal(err)
			}
			// Persist from a few goroutines: each Put pays an fsync.
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < n; i += 8 {
						if err := results.Put("point", fmt.Sprintf("%s#%d", p.Key(), i), out); err != nil {
							b.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv, rec, err := NewDurableServer(Options{DataDir: dir, Workers: 2})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if rec.Results != n {
					b.Fatalf("boot counted %d results, want %d", rec.Results, n)
				}
				_ = srv.Close(context.Background())
				b.StartTimer()
			}
		})
	}
}

// benchReplayAccesses mirrors the test stream shape at benchmark size.
func benchReplayAccesses(n int) []tracesim.Access {
	rng := rand.New(rand.NewSource(5))
	out := make([]tracesim.Access, n)
	addr := uint64(0)
	for i := range out {
		if rng.Intn(3) == 0 {
			addr = uint64(rng.Intn(16 << 20))
		} else {
			addr += 64
		}
		out[i] = tracesim.Access{Addr: addr, Kind: cache.Read}
	}
	return out
}
