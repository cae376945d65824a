package service

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/keys"
)

// quickPoint is one point of quickSpec, asked for on its own.
var quickPoint = RunRequest{Workload: "STREAM", Config: "dram", Size: "2GB", Threads: 64}

// persistQuickSpec runs quickSpec on a durable server over dir, then
// crashes it (no graceful Close), leaving four point results and one
// campaign result on disk.
func persistQuickSpec(t *testing.T, dir string) CampaignResponse {
	t.Helper()
	_, c, ts, _ := newDurableTestServer(t, dir, Options{})
	first, err := c.SubmitCampaign(context.Background(), quickSpec, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.Job.State != JobDone || first.Result == nil || first.Result.Points != 4 {
		t.Fatalf("first campaign: %+v", first.Job)
	}
	ts.Close()
	return first
}

// resultFile is where the result store keeps one (kind, key) result.
func resultFile(dir, kind, key string) string {
	return filepath.Join(dir, "results", keys.New("result").Str("kind", kind).Str("key", key).Sum()+".res")
}

func wantMetric(t *testing.T, m, row string) {
	t.Helper()
	if !strings.Contains(m, row+"\n") {
		name, _, _ := strings.Cut(row, " ")
		name, _, _ = strings.Cut(name, "{")
		t.Errorf("metrics missing %q:\n%s", row, grepMetrics(m, name))
	}
}

// TestReadThroughFaults: whatever the disk does to a persisted result
// after a crash-restart, the service never serves a corrupt answer; at
// worst it recomputes.
func TestReadThroughFaults(t *testing.T) {
	ctx := context.Background()

	t.Run("read-errors-recompute", func(t *testing.T) {
		dir := t.TempDir()
		first := persistQuickSpec(t, dir)

		fault := faultfs.New(nil)
		srv, c, ts, _ := newDurableTestServer(t, dir, Options{DataFS: fault})
		t.Cleanup(func() { srv.Close(context.Background()) })
		fault.FailAfterReads(0)

		again, err := c.SubmitCampaign(ctx, quickSpec, true)
		if err != nil {
			t.Fatal(err)
		}
		if again.Result == nil || again.Result.Cached || again.Result.CacheHits != 0 {
			t.Fatalf("campaign with unreadable results: %+v, want a full recompute", again.Result)
		}
		for i, r := range again.Result.Results {
			if want := first.Result.Results[i]; r.Key != want.Key || r.Value != want.Value {
				t.Errorf("point %d recomputed as %s=%v, want %s=%v", i, r.Key, r.Value, want.Key, want.Value)
			}
		}
		if _, misses := srv.points.Stats(); misses != 4 {
			t.Errorf("%d point misses, want 4", misses)
		}
		m := scrapeMetrics(t, ts)
		// An I/O error says nothing about the bytes: nothing is
		// quarantined, and re-persisting replaces files without
		// counting them twice.
		wantMetric(t, m, "simd_results_quarantined 0")
		wantMetric(t, m, "simd_results_stored 5")
		wantMetric(t, m, `simd_cache_disk_hits_total{cache="point"} 0`)
	})

	t.Run("rotten-file-quarantined", func(t *testing.T) {
		dir := t.TempDir()
		first := persistQuickSpec(t, dir)
		want := first.Result.Results[0]

		path := resultFile(dir, "point", want.Key)
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)-2] ^= 0x01
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}

		_, c2, ts2, _ := newDurableTestServer(t, dir, Options{})
		got, err := c2.Run(ctx, quickPoint)
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != want.Key || got.Cached || got.Value != want.Value {
			t.Fatalf("rotten point served as %s=%v cached=%v, want a recompute of %s=%v", got.Key, got.Value, got.Cached, want.Key, want.Value)
		}
		m := scrapeMetrics(t, ts2)
		wantMetric(t, m, "simd_results_quarantined 1")
		wantMetric(t, m, "simd_results_stored 5")
		if _, err := os.Stat(filepath.Join(dir, "results", "quarantine", filepath.Base(path))); err != nil {
			t.Errorf("rotten file not in quarantine: %v", err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("recomputed point not re-persisted: %v", err)
		}
		ts2.Close()

		srv3, c3, ts3, _ := newDurableTestServer(t, dir, Options{})
		t.Cleanup(func() { srv3.Close(context.Background()) })
		got, err = c3.Run(ctx, quickPoint)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Cached || got.Value != want.Value {
			t.Fatalf("third boot: %s=%v cached=%v, want %v from disk", got.Key, got.Value, got.Cached, want.Value)
		}
		wantMetric(t, scrapeMetrics(t, ts3), `simd_cache_disk_hits_total{cache="point"} 1`)
	})
}

// openCounter is a faultfs.FS that counts the files opened under dir.
type openCounter struct {
	faultfs.FS
	dir   string
	opens atomic.Int64
}

func (o *openCounter) count(name string) {
	if strings.HasPrefix(name, o.dir+string(filepath.Separator)) {
		o.opens.Add(1)
	}
}

func (o *openCounter) Open(name string) (faultfs.File, error) {
	o.count(name)
	return o.FS.Open(name)
}

func (o *openCounter) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	o.count(name)
	return o.FS.OpenFile(name, flag, perm)
}

// TestBootOpensNoResults pins boot to the journal: a durable server
// over persisted results opens none of them until one is asked for,
// and then exactly that one.
func TestBootOpensNoResults(t *testing.T) {
	dir := t.TempDir()
	first := persistQuickSpec(t, dir)

	fsys := &openCounter{FS: faultfs.OS{}, dir: filepath.Join(dir, "results")}
	srv, c, _, rec := newDurableTestServer(t, dir, Options{DataFS: fsys})
	t.Cleanup(func() { srv.Close(context.Background()) })
	if n := fsys.opens.Load(); n != 0 {
		t.Fatalf("boot opened %d result files, want 0", n)
	}
	if rec.Results != 5 || rec.Restored != 1 {
		t.Fatalf("recovery %+v, want 5 results stored and 1 job restored", rec)
	}

	got, err := c.Run(context.Background(), quickPoint)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Key != first.Result.Results[0].Key {
		t.Fatalf("persisted point %s not served from disk (cached=%v)", got.Key, got.Cached)
	}
	if n := fsys.opens.Load(); n != 1 {
		t.Fatalf("first lookup of a persisted point opened %d result files, want 1", n)
	}
}
