package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/tracesim"
	"repro/internal/tracestore"
)

// TestExportIngestReplayRoundTrip is the satellite contract: a stream
// exported with -o, ingested into a store, replays to the identical
// result as the generator it came from.
func TestExportIngestReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "chase.trc")
	var out bytes.Buffer
	if err := run([]string{
		"-pattern", "chase", "-footprint", "2MB", "-accesses", "150000", "-seed", "99", "-o", path,
	}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "exported chase trace") || !strings.Contains(out.String(), "id:") {
		t.Fatalf("export output %q", out.String())
	}

	st, err := tracestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	meta, existed, err := st.Ingest(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if existed || meta.Accesses != 150000 {
		t.Fatalf("ingest of export: %+v existed=%v", meta, existed)
	}
	if !strings.Contains(out.String(), meta.ID) {
		t.Fatalf("exported id not reported: output %q, ingested id %s", out.String(), meta.ID)
	}

	// Replay the stored trace and the original generator; results must
	// be identical.
	cfg := tracesim.DefaultConfig(1 << 20)
	gen, err := tracesim.NewPointerChase(0, 2<<20, 150000, cache.Read, 99)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := tracesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(gen, 2)
	if err != nil {
		t.Fatal(err)
	}

	prov, err := st.Open(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer prov.Close()
	sim, err := tracesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.Run(prov.Blocks(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if perr := prov.Err(); perr != nil {
		t.Fatal(perr)
	}
	if got != want {
		t.Fatalf("stored replay diverges from generator replay:\n got %+v\nwant %+v", got, want)
	}
}

// TestReplayStillWorks guards the original replay path around the new
// flag plumbing.
func TestReplayStillWorks(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-pattern", "seq", "-footprint", "1MB"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pattern=seq", "L1  hit ratio", "avg latency"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("replay output missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-pattern", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
	if err := run([]string{"-footprint", "wat"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad footprint accepted")
	}
}
