package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/engine"
	"repro/internal/keys"
	"repro/internal/obs"
	"repro/internal/tracesim"
	"repro/internal/tracestore"
	"repro/internal/units"
)

// This file is the stored-trace request path: POST /v1/traces ingests
// a real memory trace into the durable content-addressed store
// (internal/tracestore), GET/DELETE /v1/traces* manage it, and POST
// /v1/replay feeds a stored trace through the scaled functional cache
// hierarchy — the same hierarchy mapping as the synthetic trace
// fidelity, behind its own content-addressed singleflight cache
// (key = trace id + SKU + config + passes + prefetch).
//
// A replay is byte-identical to an in-process tracesim.Simulator run
// of the same stored trace. A replay campaign opens and decodes each
// stored trace once per SKU, with one memory lane per configuration
// (see streamCompute). The first replay of a trace variant (SKU,
// passes, prefetch) records its miss stream beside the trace, and
// every later replay of the variant drains its lanes from that stream
// instead of decoding and re-simulating the trace (see computeReplay).

// errStorage marks server-side trace-storage faults (a corrupted
// block, a vanished file); the HTTP layer maps it to 500, unlike
// request-shaped problems (400) and unknown ids (404).
var errStorage = errors.New("service: trace storage failure")

// maxReplayPasses bounds the replay multi-pass knob.
const maxReplayPasses = 8

// TraceInfo is the wire form of one stored trace's metadata.
type TraceInfo struct {
	// ID is the content address: hex SHA-256 of the canonical access
	// stream, independent of upload format and compression.
	ID string `json:"id"`
	// Accesses, Reads, Writes describe the reference mix.
	Accesses int64 `json:"accesses"`
	Reads    int64 `json:"reads"`
	Writes   int64 `json:"writes"`
	// Footprint is the unique bytes touched (64 B line granularity),
	// in canonical size spelling; FootprintBytes is the raw count.
	Footprint      string `json:"footprint"`
	FootprintBytes int64  `json:"footprint_bytes"`
	// MinAddr and MaxAddr bound the address range.
	MinAddr uint64 `json:"min_addr"`
	MaxAddr uint64 `json:"max_addr"`
	// FileBytes is the encoded size on disk.
	FileBytes int64 `json:"file_bytes"`
}

func traceInfo(m tracestore.Meta) TraceInfo {
	return TraceInfo{
		ID:             m.ID,
		Accesses:       m.Accesses,
		Reads:          m.Reads,
		Writes:         m.Writes,
		Footprint:      m.Footprint().String(),
		FootprintBytes: m.FootprintBytes,
		MinAddr:        m.MinAddr,
		MaxAddr:        m.MaxAddr,
		FileBytes:      m.FileBytes,
	}
}

// TraceUploadResponse is the POST /v1/traces envelope: the stored
// trace plus whether this upload deduplicated against an existing one
// (same content address, no second copy written).
type TraceUploadResponse struct {
	TraceInfo
	Existed   bool    `json:"existed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ReplayRequest asks to replay a stored trace through the scaled
// cache hierarchy under one memory configuration.
type ReplayRequest struct {
	// Trace is the stored trace's content address (from upload or
	// GET /v1/traces).
	Trace string `json:"trace"`
	// Config is the memory configuration ("dram", "cache", ...).
	Config string `json:"config"`
	// SKU selects the machine preset (default 7210).
	SKU string `json:"sku,omitempty"`
	// Passes replays the stream N times, measuring the last pass
	// (warm caches); default 1 — a cold replay.
	Passes int `json:"passes,omitempty"`
	// Prefetch enables the stream prefetcher (default true).
	Prefetch *bool `json:"prefetch,omitempty"`
	// Shards is accepted from older clients and ignored: sharded
	// replay is gone.
	Shards json.RawMessage `json:"shards,omitempty"`
}

// replayQuery is the canonical resolved form of a ReplayRequest: the
// unit of execution and caching.
type replayQuery struct {
	trace    string
	config   engine.MemoryConfig
	sku      string
	passes   int
	prefetch bool
}

// Resolve canonicalizes the request. Validation errors map to 400.
func (r ReplayRequest) Resolve() (replayQuery, error) {
	q := replayQuery{trace: strings.TrimSpace(r.Trace), sku: r.SKU, passes: r.Passes, prefetch: true}
	if q.trace == "" {
		return replayQuery{}, fmt.Errorf("service: replay request names no trace")
	}
	cfg, err := engine.ParseConfig(r.Config)
	if err != nil {
		return replayQuery{}, err
	}
	q.config = cfg
	if q.sku == "" {
		q.sku = campaign.DefaultSKU
	}
	if q.passes == 0 {
		q.passes = 1
	}
	if q.passes < 1 || q.passes > maxReplayPasses {
		return replayQuery{}, fmt.Errorf("service: passes %d out of range [1, %d]", r.Passes, maxReplayPasses)
	}
	if r.Prefetch != nil {
		q.prefetch = *r.Prefetch
	}
	return q, nil
}

// missVariant names the miss stream q's replay records and drains:
// everything above the memory system that the stream depends on.
func (q replayQuery) missVariant() string {
	return keys.New("misses").
		Str("sku", q.sku).
		Int("p", int64(q.passes)).
		Bool("pf", q.prefetch).
		Sum()[:16]
}

// Key is the content address of the replay result.
func (q replayQuery) Key() string {
	return keys.New("replay").
		Str("tr", q.trace).
		Int("k", int64(q.config.Kind)).
		Float("f", q.config.HybridFlatFraction).
		Str("sku", q.sku).
		Int("p", int64(q.passes)).
		Bool("pf", q.prefetch).
		Sum()
}

// ReplayStats is the full counter set of a replay — every field the
// functional simulator reports, so service results are byte-for-byte
// comparable with in-process tracesim runs.
type ReplayStats struct {
	Accesses    int64   `json:"accesses"`
	L1Hits      int64   `json:"l1_hits"`
	L1Misses    int64   `json:"l1_misses"`
	L2Hits      int64   `json:"l2_hits"`
	L2Misses    int64   `json:"l2_misses"`
	MCHits      int64   `json:"memcache_hits"`
	MCMisses    int64   `json:"memcache_misses"`
	MemReads    int64   `json:"mem_reads"`
	MemWrites   int64   `json:"mem_writes"`
	Prefetches  int64   `json:"prefetches"`
	TotalTimeNS float64 `json:"total_time_ns"`
}

func replayStats(r tracesim.Result) ReplayStats {
	return ReplayStats{
		Accesses:    r.Accesses,
		L1Hits:      r.L1.Hits,
		L1Misses:    r.L1.Misses,
		L2Hits:      r.L2.Hits,
		L2Misses:    r.L2.Misses,
		MCHits:      r.MemCache.Hits,
		MCMisses:    r.MemCache.Misses,
		MemReads:    r.MemReads,
		MemWrites:   r.MemWrites,
		Prefetches:  r.Prefetches,
		TotalTimeNS: r.TotalTimeNS,
	}
}

// hitRatios returns the L1, L2 and memory-side cache hit ratios.
func (s ReplayStats) hitRatios() (l1, l2, mc float64) {
	return cache.Stats{Hits: s.L1Hits, Misses: s.L1Misses}.HitRatio(),
		cache.Stats{Hits: s.L2Hits, Misses: s.L2Misses}.HitRatio(),
		cache.Stats{Hits: s.MCHits, Misses: s.MCMisses}.HitRatio()
}

// replayMetric is the headline metric of every replay.
const replayMetric = "ns/access"

// replayResult is what the replay cache holds for one replay: the
// computed part of a ReplayResponse. Its JSON field names are
// ReplayResponse's, so result files holding a whole response still
// decode into it.
type replayResult struct {
	Value float64     `json:"value"`
	Stats ReplayStats `json:"stats"`
}

func newReplayResult(r tracesim.Result) replayResult {
	return replayResult{Value: r.AvgLatencyNS(), Stats: replayStats(r)}
}

// ReplayResponse is one replay of a stored trace.
type ReplayResponse struct {
	Trace  TraceInfo `json:"trace"`
	Config string    `json:"config"`
	SKU    string    `json:"sku"`
	Passes int       `json:"passes"`
	// Prefetch echoes whether the stream prefetcher was on.
	Prefetch bool `json:"prefetch"`
	// Key is the content address the result is cached under.
	Key string `json:"key"`
	// Metric/Value is the headline number: mean ns per access.
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	// Stats is the full hierarchy behaviour.
	Stats     ReplayStats `json:"stats"`
	Cached    bool        `json:"cached"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// computeReplay replays the stored trace the queries share once, with
// one memory lane per query: result i equals a replay of qs[i] alone.
// The queries differ only in their configs; a direct /v1/replay is a
// group of one. When the variant's miss stream is on disk and intact
// the lanes drain from it (span attribute upper=stored); otherwise the
// trace is decoded and simulated, and its miss stream recorded
// (upper=replayed). Cancellation is checked before the replay starts;
// a begun replay runs to completion so a cancelled result is never
// cached half-done.
func (s *Server) computeReplay(ctx context.Context, qs []replayQuery) (out []replayResult, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	q := qs[0]
	_, span := obs.StartSpan(ctx, "replay")
	span.SetAttr("trace", q.trace)
	defer func() {
		span.SetError(err != nil)
		span.End()
	}()
	st, err := s.traceStore()
	if err != nil {
		return nil, err
	}
	configs := make([]engine.MemoryConfig, len(qs))
	for i, m := range qs {
		configs[i] = m.config
	}
	cfgs, err := s.exec.laneConfigs(q.sku, configs, q.prefetch)
	if err != nil {
		return nil, err
	}
	results, ok := drainStored(st, q, cfgs)
	if ok {
		span.SetAttr("upper", "stored")
	} else {
		span.SetAttr("upper", "replayed")
		if results, err = s.replayStored(st, q, cfgs); err != nil {
			return nil, err
		}
	}
	out = make([]replayResult, len(qs))
	for i, r := range results {
		out[i] = newReplayResult(r)
	}
	return out, nil
}

// drainStored drains one lane per config from the recorded miss stream
// of q's variant. ok=false means there is no usable stream: none was
// recorded, or it was recorded on another hierarchy or pass count, or
// it fails a check while draining (the caller then replays the trace,
// which records the stream again). A stream that fails a check never
// yields a result.
func drainStored(st *tracestore.Store, q replayQuery, cfgs []tracesim.Config) ([]tracesim.Result, bool) {
	r, err := st.OpenMisses(q.trace, q.missVariant())
	if err != nil {
		return nil, false
	}
	defer r.Close()
	h := r.Header()
	if h.Hierarchy != cfgs[0].Hierarchy() || h.Passes != q.passes {
		return nil, false
	}
	res, err := tracesim.DrainLanes(cfgs, h.Upper, h.Warm, r)
	if err != nil || r.Err() != nil {
		return nil, false
	}
	return res, true
}

// replayStored decodes the stored trace and replays it through one
// memory lane per config, recording the miss stream of q's variant on
// the way. Decoded varint-delta blocks are walked in place
// (tracestore.BlockReader) with no staging copy. A stream that cannot
// be recorded (a full disk) costs later replays their shortcut, never
// this replay its result.
func (s *Server) replayStored(st *tracestore.Store, q replayQuery, cfgs []tracesim.Config) ([]tracesim.Result, error) {
	prov, err := st.Open(q.trace)
	if err != nil {
		return nil, err
	}
	defer prov.Close()
	var recorder tracesim.MissRecorder
	rec, recErr := st.CreateMisses(q.trace, q.missVariant())
	if recErr == nil {
		recorder = rec
	}
	res, upper, err := runLanes(cfgs, prov.Blocks(), q.passes, recorder)
	if perr := prov.Err(); err == nil && perr != nil {
		// The stream ended early: the result would silently describe a
		// truncated trace, so fail loudly instead.
		err = fmt.Errorf("%w: %v", errStorage, perr)
	}
	if err != nil {
		if rec != nil {
			rec.Abort()
		}
		return nil, err
	}
	if recErr == nil {
		recErr = rec.Commit(tracestore.MissHeader{Hierarchy: cfgs[0].Hierarchy(), Passes: q.passes, Upper: upper})
	}
	if recErr != nil {
		s.logger.Warn("miss stream not recorded", "trace", q.trace, "err", recErr)
	}
	return res, nil
}

// replayOutcome is the campaign outcome of point p replayed to res:
// a stored-trace replay point, or a synthetic trace-fidelity point.
func replayOutcome(p campaign.Point, res replayResult, cached bool) campaign.Outcome {
	l1, l2, mc := res.Stats.hitRatios()
	return campaign.Outcome{
		Point:  p,
		Metric: replayMetric,
		Value:  res.Value,
		Cached: cached,
		Trace: &campaign.TraceStats{
			Accesses:     res.Stats.Accesses,
			L1HitRate:    l1,
			L2HitRate:    l2,
			MCHitRate:    mc,
			MemReads:     res.Stats.MemReads,
			MemWrites:    res.Stats.MemWrites,
			AvgLatencyNS: res.Value,
		},
	}
}

// --- HTTP handlers ---------------------------------------------------

// handleTraceUpload is POST /v1/traces: a streaming (chunked-friendly)
// ingest of NDJSON, CSV, gzip of either, or the binary trace format.
// 201 on a new trace, 200 when the content address deduplicated, 413
// beyond the trace body cap, 400 for malformed streams.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	st, err := s.traceStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	start := time.Now()
	// The cap is enforced twice: MaxBytesReader bounds the wire bytes,
	// and Ingest bounds the DECODED stream (so a gzip bomb cannot
	// expand past -max-trace server-side).
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.maxTrace)}
	meta, existed, err := st.Ingest(body, s.maxTrace)
	if err != nil {
		// A capped body can surface as the MaxBytesError, as
		// ErrTooLarge from the decoded-stream bound, or as a parse
		// error on the truncated tail; all mean the upload exceeded
		// the cap.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) || errors.Is(err, tracestore.ErrTooLarge) || body.n >= s.maxTrace {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("service: trace upload exceeds the %s body limit (decoded); raise -max-trace on the server", units.Bytes(s.maxTrace)))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, TraceUploadResponse{
		TraceInfo: traceInfo(meta),
		Existed:   existed,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// countingReader tracks how many bytes the ingest consumed, so the
// upload handler can tell "parse error because the cap truncated the
// stream" from a genuinely malformed trace.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handleTraceList is GET /v1/traces.
func (s *Server) handleTraceList(w http.ResponseWriter, _ *http.Request) {
	st, err := s.traceStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	out := []TraceInfo{}
	for _, m := range st.List() {
		out = append(out, traceInfo(m))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceGet is GET /v1/traces/{id}.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.traceStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	id := r.PathValue("id")
	m, ok := st.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", tracestore.ErrNotFound, id))
		return
	}
	writeJSON(w, http.StatusOK, traceInfo(m))
}

// handleTraceDelete is DELETE /v1/traces/{id}.
func (s *Server) handleTraceDelete(w http.ResponseWriter, r *http.Request) {
	st, err := s.traceStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	id := r.PathValue("id")
	if err := st.Delete(id); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, tracestore.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// handleReplay is POST /v1/replay: the synchronous stored-trace
// replay path, behind the content-addressed replay cache.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req ReplayRequest
	if !s.decodeBody(w, r, "replay request", &req) {
		return
	}
	q, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A deleted trace must 404 even when earlier replays are still
	// cached; content addressing makes those entries valid again the
	// moment the identical trace is re-uploaded.
	st, err := s.traceStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	meta, ok := st.Get(q.trace)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", tracestore.ErrNotFound, q.trace))
		return
	}
	start := time.Now()
	key := q.Key()
	res, cached, err := s.replays.GetOrCompute(key, func() (replayResult, error) {
		rs, err := s.computeReplay(r.Context(), []replayQuery{q})
		if err != nil {
			return replayResult{}, err
		}
		return rs[0], nil
	})
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, tracestore.ErrNotFound):
			status = http.StatusNotFound
		case errors.Is(err, errStorage):
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	if cached {
		s.lookupSeconds.Observe(time.Since(start).Seconds(), "replay")
	}
	writeJSON(w, http.StatusOK, ReplayResponse{
		Trace:     traceInfo(meta),
		Config:    q.config.String(),
		SKU:       q.sku,
		Passes:    q.passes,
		Prefetch:  q.prefetch,
		Key:       key,
		Metric:    replayMetric,
		Value:     res.Value,
		Stats:     res.Stats,
		Cached:    cached,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// RenderTraces renders the trace listing the way simctl prints it.
func RenderTraces(traces []TraceInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %10s %10s %12s %10s\n", "id", "accesses", "reads", "writes", "footprint", "on disk")
	for _, t := range traces {
		fmt.Fprintf(&b, "%-16s %12d %10d %10d %12s %10s\n",
			campaign.ShortTraceID(t.ID), t.Accesses, t.Reads, t.Writes, t.Footprint, units.Bytes(t.FileBytes))
	}
	return b.String()
}

// RenderReplay renders a replay result the way simctl prints it.
func RenderReplay(r ReplayResponse) string {
	var b strings.Builder
	from := "computed"
	if r.Cached {
		from = "served from cache"
	}
	fmt.Fprintf(&b, "replay of trace %s under %s on %s (passes=%d prefetch=%t), %s\n",
		campaign.ShortTraceID(r.Trace.ID), r.Config, r.SKU, r.Passes, r.Prefetch, from)
	fmt.Fprintf(&b, "accesses:      %d (%d reads, %d writes, footprint %s)\n",
		r.Trace.Accesses, r.Trace.Reads, r.Trace.Writes, r.Trace.Footprint)
	l1, l2, mc := r.Stats.hitRatios()
	fmt.Fprintf(&b, "L1  hit ratio: %.3f (%d/%d)\n", l1, r.Stats.L1Hits, r.Stats.L1Hits+r.Stats.L1Misses)
	fmt.Fprintf(&b, "L2  hit ratio: %.3f (%d/%d)\n", l2, r.Stats.L2Hits, r.Stats.L2Hits+r.Stats.L2Misses)
	if r.Stats.MCHits+r.Stats.MCMisses > 0 {
		fmt.Fprintf(&b, "MSC hit ratio: %.3f (%d/%d)\n", mc, r.Stats.MCHits, r.Stats.MCHits+r.Stats.MCMisses)
	}
	fmt.Fprintf(&b, "memory reads:  %d lines\n", r.Stats.MemReads)
	fmt.Fprintf(&b, "memory writes: %d lines\n", r.Stats.MemWrites)
	fmt.Fprintf(&b, "prefetches:    %d\n", r.Stats.Prefetches)
	fmt.Fprintf(&b, "avg latency:   %.2f %s\n", r.Value, r.Metric)
	return b.String()
}
