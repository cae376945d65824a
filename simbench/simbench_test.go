package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// A stall must be charged to every op queued behind it: op 0 holds the
// only connection for 60ms while ops 1..5 fall due every 5ms, so each
// of them waits for the stall and its latency, counted from its due
// time, includes that wait.
func TestOpenLoopChargesFromIntendedSendTime(t *testing.T) {
	const stall, gap = 60 * time.Millisecond, 5 * time.Millisecond
	ops := openLoop(context.Background(), 6, 1,
		func(i int) time.Duration { return time.Duration(i) * gap },
		func(i int, _ *opRec) error {
			if i == 0 {
				time.Sleep(stall)
			}
			return nil
		})
	if len(ops) != 6 {
		t.Fatalf("got %d ops, want 6", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		want := stall - time.Duration(i)*gap
		if got := ops[i].latency(); got < want {
			t.Errorf("op %d latency %v, want at least %v (queued behind the stall)", i, got, want)
		}
		if got := ops[i].lag; got < want {
			t.Errorf("op %d sent %v late, want at least %v", i, got, want)
		}
		if ops[i].latency() < ops[i].done.Sub(ops[i].sent) {
			t.Errorf("op %d latency counted from the send, not the due time", i)
		}
	}
}

// With a free connection, an op is not sent before its due time.
func TestOpenLoopWaitsForDueTime(t *testing.T) {
	start := time.Now()
	ops := openLoop(context.Background(), 3, 2,
		func(i int) time.Duration { return time.Duration(i) * 20 * time.Millisecond },
		func(int, *opRec) error { return nil })
	for i, o := range ops {
		if o.sent.Before(o.due) {
			t.Errorf("op %d sent %v before it was due", i, o.due.Sub(o.sent))
		}
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Errorf("3 ops 20ms apart finished in %v", el)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{99, 0.9, 90, false},
		{100, 0.9, 90, true},
		{150, 0.9, 135, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.9, 0, false},
	} {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %t; want %v, %t", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// inputs renders everything a seed generates into one byte string.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	g := newTraceCampaigns(seed)
	for i := 0; i < 50; i++ {
		if err := enc.Encode(g.spec(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		buf.Write(genTrace(seed, i, nil).data)
	}
	ws := genWarmSet(seed)
	var next [numKinds]int
	cold := newColdInputs(seed)
	for i := 0; i < 20; i++ {
		if err := enc.Encode([]any{cold.run(i), cold.advise(i), cold.cluster(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode([]any{ws, mixSchedule(seed, mixRate, 2000, &next, ws)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 42), inputs(t, 42)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 42 generated different inputs on two calls")
	}
	if bytes.Equal(a, inputs(t, 43)) {
		t.Fatal("seeds 42 and 43 generated identical inputs")
	}
}

// Within a run, campaigns never repeat a size, so no first submission
// can hit the point cache, and every campaign simulates the same work.
func TestTraceCampaignsNeverRepeatAndStraddleTheCliff(t *testing.T) {
	g := newTraceCampaigns(7)
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		s := g.spec(i)
		below, above := s.Sizes[0], s.Sizes[1]
		if seen[below] || seen[above] {
			t.Fatalf("campaign %d repeats a size: %v", i, s.Sizes)
		}
		seen[below], seen[above] = true, true
		var b, a int
		if _, err := fmt.Sscanf(below+" "+above, "%dMB %dMB", &b, &a); err != nil {
			t.Fatal(err)
		}
		if !(b < cliffMiB && a > cliffMiB && a+b == pairSum) {
			t.Fatalf("campaign %d sizes %v do not straddle %d MiB with sum %d", i, s.Sizes, cliffMiB, pairSum)
		}
	}
}

// The warm mix composition is exact per block of 20, so per-request
// work counts do not depend on the seed.
func TestMixScheduleComposition(t *testing.T) {
	ws := genWarmSet(5)
	var next [numKinds]int
	sched := mixSchedule(5, 100, 200, &next, ws)
	var count [numKinds]int
	for i, e := range sched {
		count[e.Kind]++
		if i > 0 && e.At < sched[i-1].At {
			t.Fatalf("schedule not in time order at %d", i)
		}
	}
	want := [numKinds]int{kWarmRun: 70, kColdRun: 30, kWarmAdvise: 30, kColdAdvise: 10, kWarmCluster: 20, kColdCluster: 10, kCampaign: 30, kScrape: 1}
	if count != want {
		t.Fatalf("composition %v, want %v", count, want)
	}
	if next[kColdRun] != 30 || next[kColdAdvise] != 10 || next[kColdCluster] != 10 {
		t.Fatalf("cold counters advanced to %v", next)
	}
}

func TestPromSamplesToleratesNewFamilies(t *testing.T) {
	text := `# HELP simd_new_family Something added later.
# TYPE simd_new_family counter
simd_new_family{zone="a"} 99
simd_cache_hits_total{cache="point",extra="x"} 5
simd_cache_hits_total{cache="campaign"} 7
simd_http_request_seconds_bucket{route="POST /v1/run",code="200",le="0.005"} 12 # {trace_id="t1"} 0.003 1700000000.000
simd_journal_entries 3
simd_weird{a="q\"uote}",b="2"} 1.5e3
`
	m := promSamples(text)
	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"simd_cache_hits_total", []string{"cache", "campaign"}, 7},
		{"simd_cache_hits_total", []string{"extra", "x", "cache", "point"}, 5},
		{"simd_http_request_seconds_bucket", []string{"le", "0.005", "code", "200", "route", "POST /v1/run"}, 12},
		{"simd_journal_entries", nil, 3},
		{"simd_weird", []string{"b", "2", "a", `q"uote}`}, 1500},
		{"simd_absent", nil, 0},
	} {
		if got := promValue(m, c.name, c.kv...); got != c.want {
			t.Errorf("%s%v = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
}

// The committed BENCHMARK.json is exactly what --describe prints, and
// stays inside the benchmark contract's limits.
func TestBenchmarkJSONMatchesDefinition(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed definitionFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, definition()) {
		t.Fatalf("BENCHMARK.json differs from simbench --describe")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || len(w.Why) > 200 || seen[w.Name] {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
		seen[w.Name] = true
	}
	for _, list := range [][]metricDef{endToEnd, perLayerDefs} {
		for _, m := range list {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("metric %q: bad or duplicate name or unit %q", m.Name, m.Unit)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %q: better %q", m.Name, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
	}
	for _, m := range perLayerDefs {
		if m.Bound != nil {
			t.Errorf("per-layer metric %q carries a bound", m.Name)
		}
	}
	if len(workloadNames) != len(workloadDefs) {
		t.Errorf("%d runnable workloads, %d defined", len(workloadNames), len(workloadDefs))
	}
	for i, n := range workloadNames {
		if workloadDefs[i].Name != n {
			t.Errorf("workload %d is %q, defined as %q", i, n, workloadDefs[i].Name)
		}
	}
}
