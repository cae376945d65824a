package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/service"
)

// workload is one of the benchmark's traffic shapes.
type workload interface {
	// session runs the previous session: traffic whose persisted state
	// every measured reopen loads.
	session(ctx context.Context, k *caller) error
	// warm sends what a reopened server must answer before the first
	// op; its time counts into setup_s.
	warm(ctx context.Context, k *caller) error
	// traffic runs the measured traffic for about d.
	traffic(ctx context.Context, k *caller, d time.Duration, minOps int) []opRec
	// verify runs the run-wide output checks once all traffic is over
	// and returns how many ops failed them.
	verify(ctx context.Context) (int, error)
	// limit is the op latency limit within_limit_frac counts against.
	limit() time.Duration
	// params describes the workload's inputs for the report.
	params() string
	// inputs hands the per-layer probes the last traffic phase's inputs.
	inputs() layerInputs
}

var workloadNames = []string{"cold_trace_campaign", "upload_replay", "warm_query_mix"}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "cold_trace_campaign":
		return &coldTrace{seed: seed, gen: newTraceCampaigns(seed)}, nil
	case "upload_replay":
		return &uploadReplay{seed: seed}, nil
	case "warm_query_mix":
		return &warmMix{seed: seed, rate: mixRate, ws: genWarmSet(seed), cold: newColdInputs(seed)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// --- cold_trace_campaign ----------------------------------------------

// sessionCampaigns is how many campaigns the previous session ran.
const sessionCampaigns = 12

// coldTrace is the closed-loop, one-client stream of never-seen trace
// campaigns. Every point's value is checked against an in-process
// Executor.RunPoint of the same point once the traffic is over.
type coldTrace struct {
	seed  int64
	gen   *traceCampaigns
	next  int
	done  []doneCampaign
	phase int // index into done where the last traffic phase began

	oracle []pointTiming // per-point in-process compute times, from verify
	groups [][]campaign.Outcome
}

type doneCampaign struct {
	spec    campaign.Spec
	results []service.RunResponse
}

// pointTiming is one in-process point computation.
type pointTiming struct {
	d        time.Duration
	accesses int64
}

func (w *coldTrace) params() string {
	return fmt.Sprintf("closed loop, 1 client; 12-point trace campaigns (STREAM,GUPS x dram,hbm,cache x sizes s and %d-s MiB, s in [%d, %d) from a seeded permutation); limit %v",
		pairSum, belowMin, belowMin+belowSpan, w.limit())
}

func (w *coldTrace) limit() time.Duration { return 2 * time.Second }

func (w *coldTrace) session(ctx context.Context, k *caller) error {
	for i := 0; i < sessionCampaigns; i++ {
		var rec opRec
		if err := w.op(ctx, k, w.take())(&rec); err != nil {
			return err
		}
	}
	return nil
}

func (w *coldTrace) warm(context.Context, *caller) error { return nil }

func (w *coldTrace) take() campaign.Spec {
	spec := w.gen.spec(w.next)
	w.next++
	return spec
}

func (w *coldTrace) traffic(ctx context.Context, k *caller, d time.Duration, minOps int) []opRec {
	w.phase = len(w.done)
	return closedLoop(ctx, d, minOps, func(int) func(*opRec) error { return w.op(ctx, k, w.take()) })
}

func (w *coldTrace) op(ctx context.Context, k *caller, spec campaign.Spec) func(*opRec) error {
	return func(rec *opRec) error {
		var resp service.CampaignResponse
		err := k.do(rec, "campaign", 0, func(c *service.Client) (err error) {
			resp, err = c.SubmitCampaign(ctx, spec, true)
			return err
		})
		if err != nil {
			return err
		}
		k.keep(resp)
		r := resp.Result
		switch {
		case resp.Job.State != service.JobDone || r == nil:
			return checkf("campaign %s: job %s state %s", spec.Name, resp.Job.ID, resp.Job.State)
		case r.Cached || r.CacheHits != 0:
			return checkf("campaign %s: first submission served from cache (cached=%t, cache_hits=%d)", spec.Name, r.Cached, r.CacheHits)
		case r.Points != 12 || len(r.Results) != 12:
			return checkf("campaign %s: %d points, %d results, want 12", spec.Name, r.Points, len(r.Results))
		}
		for _, p := range r.Results {
			if p.Trace != nil {
				rec.work += p.Trace.Accesses
			}
		}
		w.done = append(w.done, doneCampaign{spec: spec, results: r.Results})
		return nil
	}
}

// verify recomputes every point of every campaign the run submitted
// with an in-process executor, two at a time (the service's width), and
// requires the served value and access count to match exactly.
func (w *coldTrace) verify(ctx context.Context) (int, error) {
	type job struct{ c, p int }
	var jobs []job
	points := make([][]campaign.Point, len(w.done))
	for ci, dc := range w.done {
		ps, _, err := dc.spec.Expand()
		if err != nil {
			return 0, err
		}
		points[ci] = ps
		for pi := range ps {
			jobs = append(jobs, job{ci, pi})
		}
	}
	outs := make([][]campaign.Outcome, len(w.done))
	for ci := range outs {
		outs[ci] = make([]campaign.Outcome, len(points[ci]))
	}
	times := make([]pointTiming, len(jobs))
	exec := service.NewExecutor()
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				j := next
				next++
				mu.Unlock()
				if j >= len(jobs) {
					return
				}
				p := points[jobs[j].c][jobs[j].p]
				t0 := time.Now()
				out, err := exec.RunPoint(ctx, p)
				times[j].d = time.Since(t0)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					continue
				}
				if out.Trace != nil {
					times[j].accesses = out.Trace.Accesses
				}
				outs[jobs[j].c][jobs[j].p] = out
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	failed := 0
	for ci, dc := range w.done {
		byKey := make(map[string]campaign.Outcome, len(outs[ci]))
		for _, o := range outs[ci] {
			byKey[o.Point.Key()] = o
		}
		for _, r := range dc.results {
			o, ok := byKey[r.Key]
			if !ok || o.Value != r.Value || o.Trace == nil || r.Trace == nil || o.Trace.Accesses != r.Trace.Accesses {
				failed++
				warnf("cold_trace_campaign: %s point %s/%s/%s differs from in-process RunPoint", dc.spec.Name, r.Workload, r.Config, r.Size)
				break
			}
		}
	}
	w.oracle, w.groups = times, outs[w.phase:]
	return failed, nil
}

func (w *coldTrace) inputs() layerInputs {
	in := layerInputs{tracePoints: w.oracle, outcomes: w.groups}
	for _, dc := range w.done[w.phase:] {
		in.specs = append(in.specs, dc.spec)
	}
	for _, g := range w.groups {
		for _, o := range g {
			in.puts = append(in.puts, put{"point", o.Point.Key(), o})
		}
	}
	return in
}

// --- upload_replay -----------------------------------------------------

// sessionUploads is how many upload+replay ops the previous session ran.
const sessionUploads = 16

var replayConfigs = []string{"dram", "hbm", "cache"}

// uploadReplay is the closed-loop upload -> cold replay stream.
type uploadReplay struct {
	seed  int64
	next  int
	buf   []byte
	ids   []string
	reps  []service.ReplayResponse
	phase int // index into ids where the last traffic phase began
}

func (w *uploadReplay) params() string {
	return fmt.Sprintf("closed loop, 1 client; upload %d-access trace (25%% writes; NDJSON/CSV alternating; uniform over %d or %d MiB), then cold replay under %s; limit %v",
		traceAccesses, spanSmall>>20, spanLarge>>20, strings.Join(replayConfigs, ","), w.limit())
}

func (w *uploadReplay) limit() time.Duration { return 2 * time.Second }

func (w *uploadReplay) session(ctx context.Context, k *caller) error {
	for i := 0; i < sessionUploads; i++ {
		var rec opRec
		if err := w.prepare(ctx, k)(&rec); err != nil {
			return err
		}
	}
	return nil
}

// warm lists the stored traces, which opens the server's lazily opened
// trace store: the first trace request after a restart pays for it.
func (w *uploadReplay) warm(ctx context.Context, k *caller) error {
	return k.do(nil, "traces", 0, func(c *service.Client) error {
		ts, err := c.Traces(ctx)
		if err == nil && len(ts) != sessionUploads {
			return checkf("reopened store lists %d traces, want %d", len(ts), sessionUploads)
		}
		return err
	})
}

func (w *uploadReplay) traffic(ctx context.Context, k *caller, d time.Duration, minOps int) []opRec {
	w.phase = len(w.ids)
	ops := closedLoop(ctx, d, minOps, func(int) func(*opRec) error { return w.prepare(ctx, k) })
	w.buf = nil // the body buffer must not count into the live heap
	return ops
}

// prepare generates the next trace body and returns the op uploading
// and replaying it.
func (w *uploadReplay) prepare(ctx context.Context, k *caller) func(*opRec) error {
	tb := genTrace(w.seed, w.next, w.buf)
	w.buf = tb.data
	w.next++
	return func(rec *opRec) error {
		var up service.TraceUploadResponse
		err := k.do(rec, "upload", len(tb.data), func(c *service.Client) (err error) {
			up, err = c.UploadTrace(ctx, bytes.NewReader(tb.data))
			return err
		})
		if err != nil {
			return err
		}
		if up.Existed || up.Accesses != traceAccesses || up.Writes != int64(tb.writes) {
			return checkf("upload: existed=%t accesses=%d writes=%d, want new, %d, %d", up.Existed, up.Accesses, up.Writes, traceAccesses, tb.writes)
		}
		var reps [3]service.ReplayResponse
		for j, cfg := range replayConfigs {
			err := k.do(rec, "replay", 0, func(c *service.Client) (err error) {
				reps[j], err = c.Replay(ctx, service.ReplayRequest{Trace: up.ID, Config: cfg})
				return err
			})
			if err != nil {
				return err
			}
			k.keep(reps[j])
			st := reps[j].Stats
			if reps[j].Cached || st.Accesses != traceAccesses || st.L1Hits+st.L1Misses != st.Accesses {
				return checkf("replay %s: cached=%t accesses=%d l1=%d+%d", cfg, reps[j].Cached, st.Accesses, st.L1Hits, st.L1Misses)
			}
			rec.work += st.Accesses
		}
		dram, hbm := reps[0].Stats, reps[1].Stats
		dram.TotalTimeNS, hbm.TotalTimeNS = 0, 0
		if dram != hbm {
			return checkf("dram and hbm replays of %s disagree on hit/miss counters: %+v vs %+v", up.ID, dram, hbm)
		}
		if !(reps[1].Value > reps[0].Value) {
			return checkf("hbm replay %.3f ns/access not slower than dram %.3f", reps[1].Value, reps[0].Value)
		}
		w.ids = append(w.ids, up.ID)
		w.reps = append(w.reps, reps[:]...)
		return nil
	}
}

func (w *uploadReplay) verify(context.Context) (int, error) { return 0, nil }

func (w *uploadReplay) inputs() layerInputs {
	var in layerInputs
	ids := w.ids[w.phase:]
	reps := w.reps[w.phase*len(replayConfigs):]
	spec := campaign.Spec{Name: "simbench-replay", Fidelity: campaign.FidelityReplay, Traces: ids, Configs: replayConfigs}
	in.specs = []campaign.Spec{spec}
	if pts, _, err := spec.Expand(); err == nil && len(pts) == len(reps) {
		// Expand orders points trace-major, config-minor: the order
		// the op replayed them in.
		var group []campaign.Outcome
		for i, p := range pts {
			r := reps[i]
			group = append(group, campaign.Outcome{Point: p, Metric: r.Metric, Value: r.Value, Trace: &campaign.TraceStats{
				Accesses: r.Stats.Accesses, MemReads: r.Stats.MemReads, MemWrites: r.Stats.MemWrites, AvgLatencyNS: r.Value,
			}})
		}
		in.outcomes = [][]campaign.Outcome{group}
	}
	for _, r := range reps {
		in.puts = append(in.puts, put{"replay", r.Key, r})
	}
	first := w.next - len(ids)
	for i := 0; i < 4 && i < len(ids); i++ {
		in.bodies = append(in.bodies, genTrace(w.seed, first+i, nil).data)
	}
	return in
}

// --- warm_query_mix ----------------------------------------------------

// mixRate is the warm_query_mix arrival rate, requests per second:
// about a tenth of the closed-loop capacity --calibrate measures (see
// README.md for why not half).
const mixRate = 300

// Previous-session cold history of the mix: cold runs, advises and
// cluster sweeps that every reopen reloads.
const (
	sessionColdRuns     = 150
	sessionColdAdvises  = 30
	sessionColdClusters = 30
)

// warmMix is the open-loop request mix at a fixed arrival rate.
type warmMix struct {
	seed int64
	rate float64
	ws   warmSet
	cold coldInputs
	next [numKinds]int

	// First responses of the warm set; every later one must equal them.
	refRuns     []service.RunResponse
	refAdvises  []service.AdviseResponse
	refClusters []service.ClusterResponse
	refCampaign *service.CampaignResult

	mu       sync.Mutex
	coldRuns []coldRunResult // guarded by mu
	phase    int             // index into coldRuns where the last traffic phase began
	sched    []mixEntry      // the last traffic phase's schedule
}

type coldRunResult struct {
	req  service.RunRequest
	resp service.RunResponse
}

func (w *warmMix) params() string {
	return fmt.Sprintf("open loop at %.0f req/s over 2 connections; 35%% warm run, 15%% cold run, 15%% warm advise, 5%% cold advise, 10%% warm cluster, 5%% cold cluster, 15%% 48-point campaign resubmission, 1 /metrics scrape/s; limit %v",
		w.rate, w.limit())
}

func (w *warmMix) limit() time.Duration { return 10 * time.Millisecond }

func (w *warmMix) session(ctx context.Context, k *caller) error {
	if err := w.sendWarm(ctx, k, false); err != nil {
		return err
	}
	for i := 0; i < sessionColdRuns; i++ {
		if err := w.send(ctx, k, mixEntry{Kind: kColdRun, Item: w.take(kColdRun)}, &opRec{}); err != nil {
			return err
		}
	}
	for i := 0; i < sessionColdAdvises; i++ {
		if err := w.send(ctx, k, mixEntry{Kind: kColdAdvise, Item: w.take(kColdAdvise)}, &opRec{}); err != nil {
			return err
		}
	}
	for i := 0; i < sessionColdClusters; i++ {
		if err := w.send(ctx, k, mixEntry{Kind: kColdCluster, Item: w.take(kColdCluster)}, &opRec{}); err != nil {
			return err
		}
	}
	return nil
}

func (w *warmMix) take(kind int) int {
	i := w.next[kind]
	w.next[kind]++
	return i
}

// warm sends every warm request once on the reopened server: each must
// already be cached (the previous session persisted it), and its
// response becomes the reference later responses must equal.
func (w *warmMix) warm(ctx context.Context, k *caller) error {
	return w.sendWarm(ctx, k, true)
}

func (w *warmMix) sendWarm(ctx context.Context, k *caller, wantCached bool) error {
	w.refRuns = make([]service.RunResponse, len(w.ws.Runs))
	w.refAdvises = make([]service.AdviseResponse, len(w.ws.Advises))
	w.refClusters = make([]service.ClusterResponse, len(w.ws.Clusters))
	for i, req := range w.ws.Runs {
		err := k.do(nil, "run", 0, func(c *service.Client) (err error) {
			w.refRuns[i], err = c.Run(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		if w.refRuns[i].Cached != wantCached {
			return checkf("warm-up run %d: cached=%t", i, w.refRuns[i].Cached)
		}
	}
	for i, req := range w.ws.Advises {
		err := k.do(nil, "advise", 0, func(c *service.Client) (err error) {
			w.refAdvises[i], err = c.Advise(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		if w.refAdvises[i].Cached != wantCached {
			return checkf("warm-up advise %d: cached=%t", i, w.refAdvises[i].Cached)
		}
	}
	for i, req := range w.ws.Clusters {
		err := k.do(nil, "cluster", 0, func(c *service.Client) (err error) {
			w.refClusters[i], err = c.Cluster(ctx, req)
			return err
		})
		if err != nil {
			return err
		}
		if w.refClusters[i].Cached != wantCached {
			return checkf("warm-up cluster %d: cached=%t", i, w.refClusters[i].Cached)
		}
	}
	var resp service.CampaignResponse
	err := k.do(nil, "campaign", 0, func(c *service.Client) (err error) {
		resp, err = c.SubmitCampaign(ctx, w.ws.Campaign, true)
		return err
	})
	if err != nil {
		return err
	}
	if resp.Result == nil || resp.Result.Cached != wantCached || resp.Result.Points != 48 {
		return checkf("warm-up campaign: %+v", resp.Job)
	}
	w.refCampaign = resp.Result
	for i := range w.refRuns {
		w.refRuns[i].Cached, w.refRuns[i].ElapsedMS = true, 0
	}
	for i := range w.refAdvises {
		w.refAdvises[i].Cached, w.refAdvises[i].ElapsedMS = true, 0
	}
	for i := range w.refClusters {
		w.refClusters[i].Cached, w.refClusters[i].ElapsedMS = true, 0
	}
	w.refCampaign.Cached = true
	return nil
}

func (w *warmMix) traffic(ctx context.Context, k *caller, d time.Duration, _ int) []opRec {
	n := int(w.rate * d.Seconds())
	sched := mixSchedule(w.seed, w.rate, n, &w.next, w.ws)
	w.mu.Lock()
	w.phase, w.sched = len(w.coldRuns), sched
	w.mu.Unlock()
	return openLoop(ctx, len(sched), 2,
		func(i int) time.Duration { return time.Duration(sched[i].At) },
		func(i int, rec *opRec) error {
			rec.kind = sched[i].Kind
			return w.send(ctx, k, sched[i], rec)
		})
}

// capacity sends the mix back to back over two connections for d and
// returns the completed requests per second: the closed-loop capacity
// the open-loop rate is set against.
func (w *warmMix) capacity(ctx context.Context, k *caller, d time.Duration) float64 {
	sched := mixSchedule(w.seed, w.rate, int(d.Seconds()*4*w.rate), &w.next, w.ws)
	deadline := time.Now().Add(d)
	start := time.Now()
	ops := openLoop(ctx, len(sched), 2, func(int) time.Duration { return 0 }, func(i int, rec *opRec) error {
		if time.Now().After(deadline) {
			return nil
		}
		return w.send(ctx, k, sched[i], rec)
	})
	n := 0
	for i := range ops {
		if ops[i].err == nil && !ops[i].sent.After(deadline) {
			n++
		}
	}
	return float64(n) / time.Since(start).Seconds()
}

// send issues one request of the mix and checks its response.
func (w *warmMix) send(ctx context.Context, k *caller, e mixEntry, rec *opRec) error {
	switch e.Kind {
	case kWarmRun, kColdRun:
		req := w.ws.Runs[e.Item%len(w.ws.Runs)]
		if e.Kind == kColdRun {
			req = w.cold.run(e.Item)
		}
		var resp service.RunResponse
		if err := k.do(rec, "run", 0, func(c *service.Client) (err error) { resp, err = c.Run(ctx, req); return err }); err != nil {
			return err
		}
		k.keep(resp)
		if e.Kind == kColdRun {
			if resp.Cached {
				return checkf("cold run %s/%s/%s served from cache", req.Workload, req.Config, req.Size)
			}
			w.mu.Lock()
			w.coldRuns = append(w.coldRuns, coldRunResult{req, resp})
			w.mu.Unlock()
			return nil
		}
		resp.ElapsedMS = 0
		if !resp.Cached || !reflect.DeepEqual(resp, w.refRuns[e.Item]) {
			return checkf("warm run %d: cached=%t or differs from its first response", e.Item, resp.Cached)
		}
	case kWarmAdvise, kColdAdvise:
		req := w.ws.Advises[e.Item%len(w.ws.Advises)]
		if e.Kind == kColdAdvise {
			req = w.cold.advise(e.Item)
		}
		var resp service.AdviseResponse
		if err := k.do(rec, "advise", 0, func(c *service.Client) (err error) { resp, err = c.Advise(ctx, req); return err }); err != nil {
			return err
		}
		k.keep(resp)
		if e.Kind == kColdAdvise {
			if resp.Cached {
				return checkf("cold advise %s/%s served from cache", req.Workload, req.Size)
			}
			return nil
		}
		resp.ElapsedMS = 0
		if !resp.Cached || !reflect.DeepEqual(resp, w.refAdvises[e.Item]) {
			return checkf("warm advise %d: cached=%t or differs from its first response", e.Item, resp.Cached)
		}
	case kWarmCluster, kColdCluster:
		req := w.ws.Clusters[e.Item%len(w.ws.Clusters)]
		if e.Kind == kColdCluster {
			req = w.cold.cluster(e.Item)
		}
		var resp service.ClusterResponse
		if err := k.do(rec, "cluster", 0, func(c *service.Client) (err error) { resp, err = c.Cluster(ctx, req); return err }); err != nil {
			return err
		}
		k.keep(resp)
		if e.Kind == kColdCluster {
			if resp.Cached {
				return checkf("cold cluster %s/%s served from cache", req.Workload, req.Size)
			}
			return nil
		}
		resp.ElapsedMS = 0
		if !resp.Cached || !reflect.DeepEqual(resp, w.refClusters[e.Item]) {
			return checkf("warm cluster %d: cached=%t or differs from its first response", e.Item, resp.Cached)
		}
	case kCampaign:
		var resp service.CampaignResponse
		if err := k.do(rec, "campaign", 0, func(c *service.Client) (err error) {
			resp, err = c.SubmitCampaign(ctx, w.ws.Campaign, true)
			return err
		}); err != nil {
			return err
		}
		k.keep(resp)
		if resp.Job.State != service.JobDone || resp.Result == nil || !resp.Result.Cached || !reflect.DeepEqual(resp.Result, w.refCampaign) {
			return checkf("campaign resubmission %s: not a cached copy of the first response", resp.Job.ID)
		}
	case kScrape:
		body, err := k.scrape(ctx, rec)
		if err != nil {
			return err
		}
		if !strings.Contains(body, "simd_cache_hits_total") {
			return checkf("/metrics scrape lacks simd_cache_hits_total")
		}
	}
	return nil
}

// verify checks every cold run against an in-process RunPoint.
func (w *warmMix) verify(ctx context.Context) (int, error) {
	exec := service.NewExecutor()
	failed := 0
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, cr := range w.coldRuns {
		p, err := cr.req.Point()
		if err != nil {
			return 0, err
		}
		out, err := exec.RunPoint(ctx, p)
		if err != nil {
			return 0, err
		}
		if out.Value != cr.resp.Value || out.Unavailable != cr.resp.Unavailable {
			failed++
			warnf("warm_query_mix: cold run %s/%s/%s = %v, in-process %v", cr.req.Workload, cr.req.Config, cr.req.Size, cr.resp.Value, out.Value)
		}
	}
	return failed, nil
}

func (w *warmMix) inputs() layerInputs {
	w.mu.Lock()
	defer w.mu.Unlock()
	in := layerInputs{specs: []campaign.Spec{w.ws.Campaign}}
	for _, cr := range w.coldRuns[w.phase:] {
		if p, err := cr.req.Point(); err == nil {
			in.modelPoints = append(in.modelPoints, p)
		}
	}
	for _, e := range w.sched {
		switch e.Kind {
		case kColdAdvise:
			in.advises = append(in.advises, w.cold.advise(e.Item))
		case kColdCluster:
			in.clusters = append(in.clusters, w.cold.cluster(e.Item))
		}
	}
	return in
}

// warnf reports a check failure on standard error.
func warnf(format string, args ...any) {
	fmt.Fprintf(stderr, "simbench: "+format+"\n", args...)
}

// liveHeapMiB forces a collection and returns the live heap. The
// second collection also frees what the first moved into sync.Pool
// victim caches, which would otherwise read as noise.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
