package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/service"
	"repro/internal/tracestore"
	"repro/internal/units"
)

// The per-layer table of a traced run. The benchmark adds no tracing
// to the program: it reads the service's own spans from /debug/traces
// and counters from /metrics, and times calls into each module's
// public functions in-process on the run's own inputs. Layers a
// workload's traffic does not reach are measured on seeded stand-ins
// (fillDefaults) and on a short fixed probe (probeTraffic), so every
// metric exists on every workload.

// layerInputs are the inputs the in-process probes replay: the last
// traffic phase's own inputs where the workload has them.
type layerInputs struct {
	specs       []campaign.Spec
	outcomes    [][]campaign.Outcome
	modelPoints []campaign.Point
	tracePoints []pointTiming
	bodies      [][]byte
	advises     []service.AdviseRequest
	clusters    []service.ClusterRequest
	puts        []put
}

// put is one result the journal probe persists.
type put struct {
	kind, key string
	v         any
}

// standIn is the first item index of the seeded stand-in inputs, far
// past anything a run's traffic draws.
const standIn = 1 << 20

// fillDefaults supplies seeded stand-ins for inputs the traffic lacks.
func (in *layerInputs) fillDefaults(ctx context.Context, seed int64) error {
	exec := service.NewExecutor()
	if len(in.outcomes) == 0 && len(in.specs) > 0 {
		pts, _, err := in.specs[0].Expand()
		if err != nil {
			return err
		}
		var group []campaign.Outcome
		for _, p := range pts {
			o, err := exec.RunPoint(ctx, p)
			if err != nil {
				return err
			}
			group = append(group, o)
		}
		in.outcomes = [][]campaign.Outcome{group}
	}
	cold := newColdInputs(seed)
	for i := 0; len(in.modelPoints) < 200; i++ {
		p, err := cold.run(standIn + i).Point()
		if err != nil {
			return err
		}
		in.modelPoints = append(in.modelPoints, p)
	}
	// The service persists a point as its campaign.Outcome.
	for i := 0; len(in.puts) < 64 && i < len(in.modelPoints); i++ {
		o, err := exec.RunPoint(ctx, in.modelPoints[i])
		if err != nil {
			return err
		}
		in.puts = append(in.puts, put{"point", o.Point.Key(), o})
	}
	for i := 0; len(in.bodies) < 4; i++ {
		in.bodies = append(in.bodies, genTrace(seed, standIn+i, nil).data)
	}
	for i := 0; len(in.advises) < 20; i++ {
		in.advises = append(in.advises, cold.advise(standIn+i))
	}
	for i := 0; len(in.clusters) < 10; i++ {
		in.clusters = append(in.clusters, cold.cluster(standIn+i))
	}
	return nil
}

// probeTraffic sends a fixed, seeded set of traced requests after the
// traffic, so every span kind has samples on every workload: a small
// model campaign twice (queue_wait, execute, a campaign-cache hit), a
// model run twice (a point-cache hit), one trace upload with a cold
// replay, and twenty /metrics scrapes.
func probeTraffic(ctx context.Context, k *caller, seed int64) ([]opRec, error) {
	cold := newColdInputs(seed)
	run := cold.run(2 * standIn)
	spec := campaign.Spec{Name: "simbench-probe", Workloads: []string{run.Workload}, Configs: []string{"dram", "hbm"}, Sizes: []string{run.Size}}
	var ops []opRec
	step := func(f func(rec *opRec) error) error {
		rec := opRec{sent: time.Now()}
		rec.due = rec.sent
		err := f(&rec)
		rec.done = time.Now()
		ops = append(ops, rec)
		return err
	}
	for i := 0; i < 2; i++ {
		if err := step(func(rec *opRec) error {
			return k.do(rec, "campaign", 0, func(c *service.Client) error {
				_, err := c.SubmitCampaign(ctx, spec, true)
				return err
			})
		}); err != nil {
			return nil, err
		}
		if err := step(func(rec *opRec) error {
			return k.do(rec, "run", 0, func(c *service.Client) error {
				_, err := c.Run(ctx, run)
				return err
			})
		}); err != nil {
			return nil, err
		}
	}
	tb := genTrace(seed, 2*standIn, nil)
	if err := step(func(rec *opRec) error {
		var up service.TraceUploadResponse
		if err := k.do(rec, "upload", len(tb.data), func(c *service.Client) (err error) {
			up, err = c.UploadTrace(ctx, bytes.NewReader(tb.data))
			return err
		}); err != nil {
			return err
		}
		return k.do(rec, "replay", 0, func(c *service.Client) error {
			_, err := c.Replay(ctx, service.ReplayRequest{Trace: up.ID, Config: "cache"})
			return err
		})
	}); err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		if err := step(func(rec *opRec) error {
			_, err := k.scrape(ctx, rec)
			return err
		}); err != nil {
			return nil, err
		}
	}
	return ops, nil
}

// maxFetched bounds how many traced requests' span trees are fetched;
// beyond it ops are sampled evenly.
const maxFetched = 4000

// spanView is what the per-layer table reads from one request's span
// tree.
type spanView struct {
	rootMS     float64 // root span: the server's whole handling
	childrenMS float64 // direct children of the root (queue_wait, execute, cache lookups, replay)
}

// spanStats aggregates span durations by layer across fetched traces.
type spanStats struct {
	queueWait, execute, lookupHit, replay []float64 // ms
	views                                 map[string]spanView
}

func collectSpans(ctx context.Context, c *service.Client, ops ...[]opRec) (*spanStats, error) {
	st := &spanStats{views: make(map[string]spanView)}
	var ids []string
	for _, set := range ops {
		stride := 1
		if total := countReqs(set); total > maxFetched {
			stride = (total + maxFetched - 1) / maxFetched
		}
		n := 0
		for i := range set {
			for _, r := range set[i].reqs {
				if n%stride == 0 {
					ids = append(ids, r.id)
				}
				n++
			}
		}
	}
	for _, id := range ids {
		td, err := c.DebugTrace(ctx, id)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", id, err)
		}
		st.add(id, td)
	}
	return st, nil
}

func countReqs(ops []opRec) int {
	n := 0
	for i := range ops {
		n += len(ops[i].reqs)
	}
	return n
}

func (st *spanStats) add(id string, td obs.TraceData) {
	v := spanView{rootMS: td.MS}
	root := 0
	for _, sp := range td.Spans {
		if sp.Parent == 0 {
			root = sp.ID
			v.rootMS = sp.MS
		}
	}
	for _, sp := range td.Spans {
		if sp.Parent == root && sp.ID != root {
			v.childrenMS += sp.MS
		}
		switch sp.Name {
		case "queue_wait":
			st.queueWait = append(st.queueWait, sp.MS)
		case "execute":
			st.execute = append(st.execute, sp.MS)
		case "replay":
			st.replay = append(st.replay, sp.MS)
		case "cache.point", "cache.campaign":
			for _, a := range sp.Attrs {
				if a.Key == "hit" && a.Value == "true" {
					st.lookupHit = append(st.lookupHit, sp.MS)
				}
			}
		}
	}
	st.views[id] = v
}

// layerRun is everything the per-layer table is computed from.
type layerRun struct {
	seed     int64
	in       *instance
	k        *caller
	untraced []opRec // phase A: same traffic, no request ids
	traced   []opRec // phase B
	probe    []opRec
	before   map[string]float64 // /metrics before phase B
	after    map[string]float64 // /metrics after phase B
	inputs   layerInputs
	scratch  string
}

// perLayer computes every per-layer metric.
func perLayer(ctx context.Context, lr *layerRun) (map[string]float64, error) {
	m := make(map[string]float64)
	st, err := collectSpans(ctx, lr.in.c, lr.traced, lr.probe)
	if err != nil {
		return nil, err
	}

	// service: transport, server self time, generator lag, unattributed.
	var transport, unattributed, lags, opLat []float64
	for i := range lr.traced {
		op := &lr.traced[i]
		opLat = append(opLat, ms(op.latency()))
		lags = append(lags, ms(op.lag))
		attributed, complete := ms(op.sent.Sub(op.due)), true
		for _, r := range op.reqs {
			v, ok := st.views[r.id]
			if !ok {
				complete = false
				continue
			}
			t := ms(r.lat) - v.rootMS
			transport = append(transport, t*1e3)
			attributed += t + v.childrenMS
		}
		if complete && op.err == nil {
			unattributed = append(unattributed, ms(op.latency())-attributed)
		}
	}
	// The breakdown is additive, so its layers are means, not medians.
	m["service.transport_us"] = mean(transport)
	m["unattributed_ms"] = mean(unattributed)
	lag, _ := percentile(sortedCopy(lags), 0.9)
	m["driver.lag_p90_ms"] = lag
	var aLat []float64
	for i := range lr.untraced {
		aLat = append(aLat, ms(lr.untraced[i].latency()))
	}
	m["trace_overhead_frac"] = median(opLat)/median(aLat) - 1
	m["service.queue_wait_ms"] = mean(st.queueWait)
	m["service.execute_ms"] = mean(st.execute)
	m["service.cache_lookup_us"] = mean(st.lookupHit) * 1e3

	// Client-side request latencies by route, traffic and probe alike.
	var scrapes, uploads, replays []float64
	for _, set := range [][]opRec{lr.traced, lr.probe} {
		for i := range set {
			for _, r := range set[i].reqs {
				switch r.route {
				case "scrape":
					scrapes = append(scrapes, us(r.lat))
				case "upload":
					uploads = append(uploads, float64(r.bytes)/1e6/r.lat.Seconds())
				case "replay":
					replays = append(replays, ms(r.lat))
				}
			}
		}
	}
	m["service.metrics_scrape_us"] = median(scrapes)
	m["service.upload_mb_per_s"] = median(uploads)
	m["service.replay_ms"] = median(replays)

	// Counter deltas over phase B.
	for _, c := range []string{"point", "campaign", "advice", "cluster", "replay"} {
		h := promValue(lr.after, "simd_cache_hits_total", "cache", c) - promValue(lr.before, "simd_cache_hits_total", "cache", c)
		miss := promValue(lr.after, "simd_cache_misses_total", "cache", c) - promValue(lr.before, "simd_cache_misses_total", "cache", c)
		ratio := 0.0
		if h+miss > 0 {
			ratio = h / (h + miss)
		}
		m["service.cache_hit_ratio."+c] = ratio
	}
	nops := float64(len(lr.traced))
	m["journal.appends_per_op"] = (promValue(lr.after, "simd_journal_entries") - promValue(lr.before, "simd_journal_entries")) / nops
	m["journal.puts_per_op"] = (promValue(lr.after, "simd_results_stored") - promValue(lr.before, "simd_results_stored")) / nops
	var work int64
	for i := range lr.traced {
		work += lr.traced[i].work
	}
	m["tracesim.accesses_per_op"] = float64(work) / nops

	// In-process probes.
	in := &lr.inputs
	if err := in.fillDefaults(ctx, lr.seed); err != nil {
		return nil, err
	}
	m["service.handler_floor_us"] = handlerFloor(lr.in.srv.Handler())
	m["service.json_encode_us"], m["service.response_kib"] = jsonEncode(lr.k.kept)
	m["campaign.expand_us"], m["campaign.tables_us"] = campaignLayer(in)
	if m["compute.model_point_us"], err = modelPoints(ctx, in.modelPoints); err != nil {
		return nil, err
	}
	ingest, allocs, decode, err := traceStoreLayer(filepath.Join(lr.scratch, "traces"), in.bodies)
	if err != nil {
		return nil, err
	}
	m["tracestore.ingest_mb_per_s"], m["tracestore.ingest_allocs_per_op"], m["tracestore.decode_ns_per_access"] = ingest, allocs, decode
	m["compute.trace_point_ms"], m["tracesim.ns_per_access"] = tracePoints(in.tracePoints, st.replay, decode)
	if m["journal.append_us"], m["journal.put_us"], err = journalLayer(filepath.Join(lr.scratch, "journal"), in); err != nil {
		return nil, err
	}
	if m["placement.advise_us"], m["cluster.iterate_us"], err = modelLayers(in); err != nil {
		return nil, err
	}
	return m, nil
}

// handlerFloor is the in-process cost of the full middleware stack on
// the cheapest route, GET /healthz, served into a recorder.
func handlerFloor(h http.Handler) float64 {
	var samples []float64
	for i := 0; i < 2000; i++ {
		req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		samples = append(samples, us(time.Since(t0)))
	}
	return median(samples)
}

// jsonEncode re-encodes the responses the run received: median encode
// time and median size.
func jsonEncode(kept []any) (encodeUS, sizeKiB float64) {
	var times, sizes []float64
	for _, v := range kept {
		t0 := time.Now()
		b, err := json.Marshal(v)
		d := time.Since(t0)
		if err != nil {
			continue
		}
		times = append(times, us(d))
		sizes = append(sizes, float64(len(b))/1024)
	}
	return median(times), median(sizes)
}

// campaignLayer times Spec.CampaignKey + Spec.Expand on the run's
// specs and campaign.Tables on its outcome groups, cycling the inputs
// to at least 200 samples each.
func campaignLayer(in *layerInputs) (expandUS, tablesUS float64) {
	var ex, tb []float64
	for i := 0; i < 200 && len(in.specs) > 0; i++ {
		s := in.specs[i%len(in.specs)]
		t0 := time.Now()
		_, err1 := s.CampaignKey()
		_, _, err2 := s.Expand()
		if d := time.Since(t0); err1 == nil && err2 == nil {
			ex = append(ex, us(d))
		}
	}
	for i := 0; i < 200 && len(in.outcomes) > 0; i++ {
		g := in.outcomes[i%len(in.outcomes)]
		t0 := time.Now()
		campaign.Tables(g)
		tb = append(tb, us(time.Since(t0)))
	}
	return median(ex), median(tb)
}

// modelPoints times Executor.RunPoint on cold analytic-model points.
func modelPoints(ctx context.Context, pts []campaign.Point) (float64, error) {
	exec := service.NewExecutor()
	if _, err := exec.System(""); err != nil {
		return 0, err
	}
	var samples []float64
	for _, p := range pts {
		t0 := time.Now()
		if _, err := exec.RunPoint(ctx, p); err != nil {
			return 0, err
		}
		samples = append(samples, us(time.Since(t0)))
	}
	return median(samples), nil
}

// traceStoreLayer ingests the bodies into a scratch store, then opens
// and drains every stored trace block by block.
func traceStoreLayer(dir string, bodies [][]byte) (mbPerS, allocsPerOp, decodeNS float64, err error) {
	st, err := tracestore.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	var total int64
	var busy time.Duration
	var mallocs uint64
	var metas []tracestore.Meta
	for _, b := range bodies {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		meta, _, err := st.Ingest(bytes.NewReader(b), 1<<30)
		busy += time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, 0, 0, err
		}
		total += int64(len(b))
		mallocs += m1.Mallocs - m0.Mallocs
		metas = append(metas, meta)
	}
	var accesses int64
	var decode time.Duration
	for _, meta := range metas {
		t0 := time.Now()
		p, err := st.Open(meta.ID)
		if err != nil {
			return 0, 0, 0, err
		}
		br := p.Blocks()
		var n int64
		for {
			blk, ok := br.NextBlock()
			if !ok {
				break
			}
			n += int64(len(blk))
		}
		decode += time.Since(t0)
		p.Close()
		if err := br.Err(); err != nil {
			return 0, 0, 0, err
		}
		if n != meta.Accesses {
			return 0, 0, 0, fmt.Errorf("decoded %d accesses of trace %s, want %d", n, meta.ID, meta.Accesses)
		}
		accesses += n
	}
	return float64(total) / 1e6 / busy.Seconds(), float64(mallocs) / float64(len(bodies)),
		float64(decode.Nanoseconds()) / float64(accesses), nil
}

// tracePoints gives the hierarchy-simulation cost per point and per
// access: from in-process RunPoint timings when the workload has trace
// points, otherwise from replay spans less the measured decode cost.
func tracePoints(pts []pointTiming, replayMS []float64, decodeNS float64) (pointMS, nsPerAccess float64) {
	var per, each []float64
	for _, p := range pts {
		if p.accesses > 0 {
			per = append(per, ms(p.d))
			each = append(each, float64(p.d.Nanoseconds())/float64(p.accesses))
		}
	}
	if len(per) == 0 {
		for _, r := range replayMS {
			sim := r - decodeNS*traceAccesses/1e6
			per = append(per, sim)
			each = append(each, sim*1e6/traceAccesses)
		}
	}
	return median(per), median(each)
}

// journalLayer appends the run's accepted-entry shape and persists its
// result shapes on a scratch directory, fsync and all.
func journalLayer(dir string, in *layerInputs) (appendUS, putUS float64, err error) {
	j, _, err := journal.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	spec := in.specs[0]
	raw, err := json.Marshal(spec)
	if err != nil {
		return 0, 0, err
	}
	key, err := spec.CampaignKey()
	if err != nil {
		return 0, 0, err
	}
	var apps []float64
	for i := 0; i < 64; i++ {
		e := journal.Entry{State: journal.StateAccepted, Job: "j" + strconv.Itoa(i), Kind: "campaign", Key: key, Req: "simbench-probe", Spec: raw}
		t0 := time.Now()
		if err := j.Append(e); err != nil {
			j.Close()
			return 0, 0, err
		}
		apps = append(apps, us(time.Since(t0)))
	}
	if err := j.Close(); err != nil {
		return 0, 0, err
	}
	res, err := journal.OpenResults(filepath.Join(dir, "results"))
	if err != nil {
		return 0, 0, err
	}
	var puts []float64
	for i := 0; i < 64 && len(in.puts) > 0; i++ {
		p := in.puts[i%len(in.puts)]
		t0 := time.Now()
		if err := res.Put(p.kind, p.key+"#"+strconv.Itoa(i), p.v); err != nil {
			return 0, 0, err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	return median(apps), median(puts), nil
}

// modelLayers times placement.Optimizer.Advise on the cold advise
// inputs and cluster.New(...).Iterate on the cold cluster inputs, per
// node count of the default sweep.
func modelLayers(in *layerInputs) (adviseUS, iterateUS float64, err error) {
	sys, err := core.NewSystem()
	if err != nil {
		return 0, 0, err
	}
	var adv, it []float64
	for _, a := range in.advises {
		mdl, err := sys.Workload(a.Workload)
		if err != nil {
			return 0, 0, err
		}
		size, err := units.ParseBytes(a.Size)
		if err != nil {
			return 0, 0, err
		}
		structs, err := placement.WorkloadStructures(mdl.Info().Pattern, size)
		if err != nil {
			return 0, 0, err
		}
		opt := &placement.Optimizer{Machine: sys.Machine, Threads: 64}
		t0 := time.Now()
		_, err = opt.Advise(structs)
		d := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		adv = append(adv, us(d))
	}
	for _, c := range in.clusters {
		mdl, err := sys.Workload(c.Workload)
		if err != nil {
			return 0, 0, err
		}
		size, err := units.ParseBytes(c.Size)
		if err != nil {
			return 0, 0, err
		}
		for _, n := range campaign.DefaultNodeCounts() {
			t0 := time.Now()
			cl, err := cluster.New(sys.Machine, n, cluster.Aries())
			if err != nil {
				return 0, 0, err
			}
			// An over-capacity decomposition is a valid answer (the
			// paper's missing bar), not a probe failure.
			_, _ = cl.Iterate(mdl, size, 64)
			it = append(it, us(time.Since(t0)))
		}
	}
	return median(adv), median(it), nil
}
