package campaign

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/units"
)

func TestExpandGridOrderAndCount(t *testing.T) {
	spec := Spec{
		Workloads: []string{"STREAM", "GUPS"},
		Configs:   []string{"dram", "hbm", "cache"},
		Sizes:     []string{"2GB", "4GB"},
		Threads:   []int{64, 128},
	}
	points, raw, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 3 * 2 * 2; raw != want || len(points) != want {
		t.Fatalf("raw=%d points=%d, want %d", raw, len(points), want)
	}
	// Deterministic grid order: workload outermost, threads innermost.
	if points[0].Workload != "STREAM" || points[0].Threads != 64 {
		t.Fatalf("unexpected first point %+v", points[0])
	}
	if points[1].Threads != 128 {
		t.Fatalf("threads should vary innermost, got %+v", points[1])
	}
	for _, p := range points {
		if p.SKU != DefaultSKU {
			t.Fatalf("SKU default not applied: %+v", p)
		}
	}
}

func TestExpandDeduplicatesEquivalentSpellings(t *testing.T) {
	spec := Spec{
		Workloads: []string{"STREAM"},
		Configs:   []string{"hbm", "MCDRAM", "flat"}, // one config, three spellings
		Sizes:     []string{"8GB", "8192MB", "8GiB"}, // one size, three spellings
	}
	points, raw, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if raw != 9 {
		t.Fatalf("raw cross product = %d, want 9", raw)
	}
	if len(points) != 1 {
		t.Fatalf("deduplicated points = %d, want 1", len(points))
	}
	if points[0].Config != engine.HBM || points[0].Size != units.GB(8) {
		t.Fatalf("canonical point wrong: %+v", points[0])
	}
}

func TestPointKeyStability(t *testing.T) {
	a := Point{Workload: "DGEMM", Config: engine.HBM, Size: units.GB(6), Threads: 64, SKU: "7210"}
	b := Point{Workload: "DGEMM", Config: engine.HBM, Size: units.GB(6), Threads: 64, SKU: "7210"}
	if a.Key() != b.Key() {
		t.Fatal("equal points must hash equal")
	}
	c := a
	c.Threads = 128
	if a.Key() == c.Key() {
		t.Fatal("different threads must hash differently")
	}
	e := a
	e.Fidelity = FidelityTrace
	if a.Key() == e.Key() {
		t.Fatal("different fidelity must hash differently")
	}
	// The zero fidelity is canonicalized to model.
	f := a
	f.Fidelity = FidelityModel
	if a.Key() != f.Key() {
		t.Fatal("empty fidelity must hash as model")
	}
	d := a
	d.Config = engine.MemoryConfig{Kind: engine.Hybrid, HybridFlatFraction: 0.5}
	if a.Key() == d.Key() {
		t.Fatal("different config must hash differently")
	}
}

// TestTraceKeyCarriesStreamVersion pins that only trace-fidelity keys
// carry the stream version: the other families keep their keys, so
// their persisted results stay valid.
func TestTraceKeyCarriesStreamVersion(t *testing.T) {
	legacy := func(p Point, fid string) string {
		return keys.New("point").Str("w", p.Workload).Int("k", int64(p.Config.Kind)).
			Float("f", p.Config.HybridFlatFraction).Int("b", int64(p.Size)).Int("t", int64(p.Threads)).
			Str("sku", p.SKU).Str("fid", fid).Int("n", int64(p.Nodes)).Str("tr", p.TraceID).Sum()
	}
	p := Point{Workload: "GUPS", Config: engine.HBM, Size: units.GB(8), SKU: "7210"}
	for _, fid := range []string{FidelityModel, FidelityAdvise, FidelityCluster, FidelityReplay} {
		q := p
		q.Fidelity = fid
		if q.Key() != legacy(q, fid) {
			t.Errorf("%s key changed", fid)
		}
	}
	q := p
	q.Fidelity = FidelityTrace
	if q.Key() == legacy(q, FidelityTrace) {
		t.Error("trace key lacks the stream version")
	}
}

func TestSizeGridGeometric(t *testing.T) {
	spec := Spec{
		Workloads: []string{"STREAM"},
		Configs:   []string{"dram"},
		SizeGrid:  &Grid{From: "1GB", To: "16GB", Points: 5},
	}
	points, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("grid points = %d, want 5", len(points))
	}
	if points[0].Size != units.GB(1) {
		t.Fatalf("grid start %v, want 1 GiB", points[0].Size)
	}
	last := points[4].Size
	if last < units.GB(15.99) || last > units.GB(16.01) {
		t.Fatalf("grid end %v, want ~16 GiB", last)
	}
	// Geometric spacing: each step doubles for a 1..16 5-point grid.
	for i := 1; i < 5; i++ {
		ratio := float64(points[i].Size) / float64(points[i-1].Size)
		if ratio < 1.99 || ratio > 2.01 {
			t.Fatalf("step %d ratio %.3f, want ~2", i, ratio)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []Spec{
		{},
		{Workloads: []string{"STREAM"}},
		{Workloads: []string{"STREAM"}, Configs: []string{"dram"}},
		{Workloads: []string{"STREAM"}, Configs: []string{"nope"}, Sizes: []string{"1GB"}},
		{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"bogus"}},
		{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}, Threads: []int{0}},
		{Workloads: []string{""}, Configs: []string{"dram"}, Sizes: []string{"1GB"}},
		{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, SizeGrid: &Grid{From: "4GB", To: "1GB", Points: 3}},
		{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, SizeGrid: &Grid{From: "1GB", To: "4GB", Points: 1}},
		{Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"1GB"}, Fidelity: "quantum"},
	}
	for i, spec := range cases {
		if _, _, err := spec.Expand(); err == nil {
			t.Errorf("case %d: Expand() accepted invalid spec %+v", i, spec)
		}
	}
}

func TestTraceFidelityCollapsesThreadAxis(t *testing.T) {
	spec := Spec{
		Fidelity:  FidelityTrace,
		Workloads: []string{"STREAM"},
		Configs:   []string{"dram", "hbm"},
		Sizes:     []string{"2GB"},
		Threads:   []int{64, 128, 256},
	}
	points, raw, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if raw != 6 {
		t.Fatalf("raw = %d, want 6", raw)
	}
	// The single-stream replay is thread-independent: the grid must
	// dedup to one point per (workload, config, size), threads 0.
	if len(points) != 2 {
		t.Fatalf("trace points = %d, want 2 (thread axis collapsed)", len(points))
	}
	for _, p := range points {
		if p.Threads != 0 || p.Fidelity != FidelityTrace {
			t.Fatalf("trace point not canonicalized: %+v", p)
		}
	}
}

func TestLatencyMetricBestIsMinimum(t *testing.T) {
	// TinyMemBench reports "ns": the best configuration is the
	// LOWEST-latency one, not the highest value.
	mk := func(cfg engine.MemoryConfig, v float64) Outcome {
		return Outcome{
			Point:  Point{Workload: "TinyMemBench", Config: cfg, Size: units.GB(8), Threads: 1, SKU: DefaultSKU},
			Metric: "ns",
			Value:  v,
		}
	}
	tables := Tables([]Outcome{mk(engine.DRAM, 130.4), mk(engine.HBM, 154.0)})
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	lines := strings.Split(strings.TrimSpace(tables[0]), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if !strings.HasSuffix(last, "DRAM") {
		t.Errorf("ns metric must rank ascending; row: %q", last)
	}
}

func TestExperimentOnlySpec(t *testing.T) {
	spec := Spec{Experiments: []string{"fig2", "table1"}}
	points, raw, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 0 || raw != 0 {
		t.Fatalf("experiment-only spec expanded to %d points", len(points))
	}
	if _, err := spec.CampaignKey(); err != nil {
		t.Fatal(err)
	}
}

func TestCampaignKeyCanonical(t *testing.T) {
	a := Spec{Workloads: []string{"STREAM", "GUPS"}, Configs: []string{"dram", "hbm"}, Sizes: []string{"2GB"}}
	b := Spec{Workloads: []string{"GUPS", "STREAM"}, Configs: []string{"HBM", "DDR"}, Sizes: []string{"2048MB"}}
	ka, err := a.CampaignKey()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.CampaignKey()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("order- and spelling-equivalent specs must share a campaign key")
	}
	c := a
	c.Experiments = []string{"fig2"}
	kc, err := c.CampaignKey()
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("adding experiments must change the campaign key")
	}
}

func TestTablesRendering(t *testing.T) {
	mk := func(cfg engine.MemoryConfig, size units.Bytes, v float64, unavailable string) Outcome {
		return Outcome{
			Point:       Point{Workload: "STREAM", Config: cfg, Size: size, Threads: 64, SKU: DefaultSKU},
			Metric:      "GB/s",
			Value:       v,
			Unavailable: unavailable,
		}
	}
	outs := []Outcome{
		mk(engine.DRAM, units.GB(2), 77, ""),
		mk(engine.HBM, units.GB(2), 330, ""),
		mk(engine.DRAM, units.GB(32), 77, ""),
		mk(engine.HBM, units.GB(32), 0, "does not fit"),
	}
	tables := Tables(outs)
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	tab := tables[0]
	for _, want := range []string{"STREAM, 64 threads (GB/s)", "DRAM", "HBM", "best", "330", "-"} {
		if !strings.Contains(tab, want) {
			t.Errorf("table missing %q:\n%s", want, tab)
		}
	}
	lines := strings.Split(strings.TrimSpace(tab), "\n")
	// Row for 32 GB: HBM does not fit, so DRAM must win "best".
	last := lines[len(lines)-1]
	if !strings.HasSuffix(strings.TrimSpace(last), "DRAM") {
		t.Errorf("32 GB row should pick DRAM as best: %q", last)
	}
}

func TestReplayFidelityExpansion(t *testing.T) {
	spec := Spec{
		Fidelity: FidelityReplay,
		Traces:   []string{"aaa111", "bbb222", "aaa111"}, // duplicate dedups
		Configs:  []string{"dram", "cache", "DDR"},       // "DDR" == "dram"
	}
	points, raw, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if raw != 9 {
		t.Fatalf("raw cross product %d, want 9", raw)
	}
	if len(points) != 4 { // 2 traces x 2 distinct configs
		t.Fatalf("expanded to %d points, want 4: %+v", len(points), points)
	}
	for _, p := range points {
		if p.TraceID == "" || p.Workload != "" || p.Size != 0 || p.Threads != 0 || p.Nodes != 0 {
			t.Fatalf("replay point carries a foreign axis: %+v", p)
		}
		if p.Fidelity != FidelityReplay {
			t.Fatalf("point fidelity %q", p.Fidelity)
		}
	}
	// Same trace under different configs must be distinct points.
	if points[0].Key() == points[1].Key() {
		t.Fatal("distinct configs share a key")
	}
	// And the key must separate replay points from trace points.
	tracePoint := Point{Workload: "STREAM", Fidelity: FidelityTrace, SKU: DefaultSKU}
	replayPoint := Point{TraceID: "aaa111", Fidelity: FidelityReplay, SKU: DefaultSKU}
	if tracePoint.Key() == replayPoint.Key() {
		t.Fatal("replay and trace points share a key")
	}
}

func TestReplaySpecErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no-traces", Spec{Fidelity: FidelityReplay, Configs: []string{"dram"}}, "names no traces"},
		{"no-configs", Spec{Fidelity: FidelityReplay, Traces: []string{"a"}}, "no memory configurations"},
		{"workloads", Spec{Fidelity: FidelityReplay, Traces: []string{"a"}, Configs: []string{"dram"}, Workloads: []string{"STREAM"}}, "drop the workloads axis"},
		{"sizes", Spec{Fidelity: FidelityReplay, Traces: []string{"a"}, Configs: []string{"dram"}, Sizes: []string{"8GB"}}, "drop the sizes axis"},
		{"threads", Spec{Fidelity: FidelityReplay, Traces: []string{"a"}, Configs: []string{"dram"}, Threads: []int{64}}, "drop the threads axis"},
		{"nodes", Spec{Fidelity: FidelityReplay, Traces: []string{"a"}, Configs: []string{"dram"}, Nodes: []int{2}}, "nodes axis"},
		{"empty-id", Spec{Fidelity: FidelityReplay, Traces: []string{" "}, Configs: []string{"dram"}}, "empty trace id"},
		{"traces-without-replay", Spec{Fidelity: FidelityModel, Traces: []string{"a"}, Workloads: []string{"STREAM"}, Configs: []string{"dram"}, Sizes: []string{"8GB"}}, "traces axis requires fidelity"},
	}
	for _, c := range cases {
		if _, _, err := c.spec.Expand(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestReplayTablesRendering(t *testing.T) {
	mk := func(cfg string, ns float64) Outcome {
		c, err := engine.ParseConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return Outcome{
			Point:  Point{TraceID: "deadbeefcafe0123", Config: c, Fidelity: FidelityReplay, SKU: DefaultSKU},
			Metric: "ns/access",
			Value:  ns,
			Trace:  &TraceStats{Accesses: 1000, L1HitRate: 0.9, AvgLatencyNS: ns},
		}
	}
	tables := Tables([]Outcome{mk("dram", 30), mk("cache", 12)})
	if len(tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(tables))
	}
	tbl := tables[0]
	for _, want := range []string{"replay of trace deadbeefcafe", "1000 accesses", "best: Cache"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}
