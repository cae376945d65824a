// Command simbench is the repository's benchmark: one seeded workload
// against an in-process durable simd (service.NewDurableServer behind
// a loopback listener, two workers, at most two client connections),
// with every response checked. It prints a human-readable report and,
// as its last line, one JSON result: the end-to-end metrics, or with
// --trace 1 the per-layer table of a separate traced run.
//
//	bash simbench/run.sh --workload upload_replay --seed 7 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

var stderr io.Writer = os.Stderr

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	calibrate bool
	workdir   string
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var describe bool
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long the measured traffic runs")
	fs.IntVar(&trace, "trace", 0, "1: run the traced pass and print the per-layer table")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "run"), "scratch directory for the service's data directories")
	fs.BoolVar(&describe, "describe", false, "print the benchmark definition (BENCHMARK.json) and exit")
	fs.BoolVar(&cfg.calibrate, "calibrate", false, "warm_query_mix: measure the closed-loop capacity over two connections")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if describe {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(definition()); err != nil {
			return 1
		}
		return 0
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "simbench: --trace must be 0 or 1\n")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "simbench: --seconds must be positive\n")
		return 2
	}
	res, err := run(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "simbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// setupRounds is how many times a run reopens the previous session's
// data directory; setup_s is the median.
const setupRounds = 15

// minOps is the fewest ops a closed-loop run measures, so that at
// least minBeyond samples lie beyond its p90.
const minOps = 10 * minBeyond

// tracedBuffer keeps every trace of the traced phase retrievable.
const tracedBuffer = 1 << 16

func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	fp, _ := json.Marshal(fingerprint(cfg.seed, dir))
	fmt.Fprintf(out, "simbench %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "machine  %s\n", fp)
	fmt.Fprintf(out, "params   %s\n", w.params())

	// The previous session: its data directory is what every measured
	// reopen starts from.
	snap := filepath.Join(dir, "session")
	in, err := openInstance(snap, 0)
	if err != nil {
		return nil, err
	}
	err = w.session(ctx, &caller{in: in})
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("previous session: %w", err)
	}

	var setups []float64
	for r := 0; r < setupRounds; r++ {
		if in, err = reopen(ctx, w, snap, filepath.Join(dir, "open"+strconv.Itoa(r)), 0, &setups); err != nil {
			return nil, err
		}
		if r < setupRounds-1 {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
	}

	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.calibrate {
		wm, ok := w.(*warmMix)
		if !ok {
			in.close()
			return nil, fmt.Errorf("--calibrate applies to warm_query_mix only")
		}
		capacity := wm.capacity(ctx, &caller{in: in}, d)
		fmt.Fprintf(out, "closed-loop capacity %.0f req/s over 2 connections; half is %.0f req/s\n", capacity, capacity/2)
	}
	if !cfg.trace {
		ops := w.traffic(ctx, &caller{in: in}, d, minOps)
		heap := liveHeapMiB()
		if err := in.close(); err != nil {
			return nil, err
		}
		res, err := tally(ctx, w, ops)
		if err != nil {
			return nil, err
		}
		_, open := w.(*warmMix)
		for name, v := range endToEndMetrics(ops, setups, heap, w.limit(), open) {
			res.Metrics[name] = v
		}
		report(out, res.Metrics, endToEnd)
		if open {
			reportKinds(out, ops)
		}
		return res, nil
	}

	// Traced run. Phase A repeats the untraced traffic for half the
	// time; phase B, on a fresh reopen that retains every trace, sends
	// each request under its own request id for half the time. The
	// latency ratio of B to A is the tracing overhead.
	opsA := w.traffic(ctx, &caller{in: in}, d/2, 0)
	if err := in.close(); err != nil {
		return nil, err
	}
	if in, err = reopen(ctx, w, snap, filepath.Join(dir, "traced"), tracedBuffer, nil); err != nil {
		return nil, err
	}
	defer in.close()
	k := &caller{in: in, traced: true}
	before, err := k.scrape(ctx, nil)
	if err != nil {
		return nil, err
	}
	opsB := w.traffic(ctx, k, d/2, 0)
	after, err := k.scrape(ctx, nil)
	if err != nil {
		return nil, err
	}
	probe, err := probeTraffic(ctx, k, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("layer probe: %w", err)
	}
	res, err := tally(ctx, w, append(opsA, opsB...))
	if err != nil {
		return nil, err
	}
	lr := &layerRun{
		seed: cfg.seed, in: in, k: k,
		untraced: opsA, traced: opsB, probe: probe,
		before: promSamples(before), after: promSamples(after),
		inputs:  w.inputs(),
		scratch: filepath.Join(dir, "scratch"),
	}
	layers, err := perLayer(ctx, lr)
	if err != nil {
		return nil, err
	}
	for _, def := range perLayerDefs {
		v, ok := layers[def.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", def.Name)
		}
		res.Metrics[def.Name] = metricValue{Value: v, Unit: def.Unit}
	}
	report(out, res.Metrics, perLayerDefs)
	return res, nil
}

// reopen copies the previous session's data directory to dst, then
// times reopening a durable server over it plus the workload's warm-up
// requests, appending the seconds to setups when non-nil.
func reopen(ctx context.Context, w workload, snap, dst string, traceBuffer int, setups *[]float64) (*instance, error) {
	if err := copyTree(snap, dst); err != nil {
		return nil, err
	}
	t0 := time.Now()
	in, err := openInstance(dst, traceBuffer)
	if err != nil {
		return nil, err
	}
	if err := w.warm(ctx, &caller{in: in}); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if setups != nil {
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return in, nil
}

// tally counts attempted and failed ops, runs the workload's run-wide
// checks, and decides correctness: every output check must pass.
func tally(ctx context.Context, w workload, ops []opRec) (*result, error) {
	res := &result{Correct: true, Attempted: len(ops), Metrics: make(map[string]metricValue)}
	shown := 0
	for i := range ops {
		err := ops[i].err
		if err == nil {
			continue
		}
		res.Failed++
		if isCheck(err) {
			res.Correct = false
		}
		if shown < 5 {
			warnf("op %d failed: %v", i, err)
			shown++
		}
	}
	failed, err := w.verify(ctx)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	if failed > 0 {
		res.Failed += failed
		res.Correct = false
	}
	return res, nil
}

// endToEndMetrics derives the end-to-end metrics of an untraced run.
func endToEndMetrics(ops []opRec, setups []float64, heapMiB float64, limit time.Duration, open bool) map[string]metricValue {
	var lat []float64
	var busy time.Duration
	var first, last time.Time
	within := 0
	for i := range ops {
		o := &ops[i]
		if o.err != nil {
			continue
		}
		lat = append(lat, ms(o.latency()))
		busy += o.done.Sub(o.sent)
		if first.IsZero() || o.due.Before(first) {
			first = o.due
		}
		if o.done.After(last) {
			last = o.done
		}
		if o.latency() <= limit {
			within++
		}
	}
	p50 := median(lat)
	p90, ok := percentile(sortedCopy(lat), 0.9)
	if !ok {
		warnf("only %d samples: p90 has fewer than %d beyond it", len(lat), minBeyond)
	}
	// A closed loop's throughput is ops per second of service time (the
	// load generator's own input generation excluded); an open loop's is the
	// rate it completed over the whole schedule.
	span := busy
	if open {
		span = last.Sub(first)
		p50, p90 = windowed(ops, first)
	}
	return map[string]metricValue{
		"setup_s":           {median(setups), "s"},
		"latency_p50_ms":    {p50, "ms"},
		"latency_p90_ms":    {p90, "ms"},
		"ops_per_s":         {float64(len(lat)) / span.Seconds(), "1/s"},
		"within_limit_frac": {float64(within) / float64(len(ops)), "ratio"},
		"live_heap_mib":     {heapMiB, "MiB"},
	}
}

// windowed returns an open loop's p50 and p90 as the medians of the
// per-second windows' p50 and p90 (windows with fewer than 100
// requests, whose p90 has fewer than ten samples beyond it, are
// skipped). A burst of host noise that stalls a few seconds of a run
// moves a few windows, not the reported values; a slower service moves
// every window.
func windowed(ops []opRec, start time.Time) (p50, p90 float64) {
	var windows [][]float64
	for i := range ops {
		if ops[i].err != nil {
			continue
		}
		w := int(ops[i].due.Sub(start) / time.Second)
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], ms(ops[i].latency()))
	}
	var p50s, p90s []float64
	for _, lat := range windows {
		if q, ok := percentile(sortedCopy(lat), 0.9); ok {
			p50s = append(p50s, median(lat))
			p90s = append(p90s, q)
		}
	}
	return median(p50s), median(p90s)
}

// reportKinds prints the warm mix's latency by request kind.
func reportKinds(out io.Writer, ops []opRec) {
	var byKind [numKinds][]float64
	for i := range ops {
		if ops[i].err == nil {
			byKind[ops[i].kind] = append(byKind[ops[i].kind], ms(ops[i].latency()))
		}
	}
	for k, lat := range byKind {
		p90, _ := percentile(sortedCopy(lat), 0.9)
		fmt.Fprintf(out, "  %-14s n=%-6d p50 %8.3f ms  p90 %8.3f ms\n", kindNames[k], len(lat), median(lat), p90)
	}
}

// report prints the metrics as a table, in definition order.
func report(out io.Writer, m map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		if v, ok := m[d.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}
