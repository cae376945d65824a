// Package service is the simulation service: the paper's what-if
// queries ("workload W at size S under configuration C with T
// threads") served over an HTTP JSON API with a bounded job queue, a
// content-addressed result cache, declarative campaign sweeps,
// /metrics + /healthz endpoints and graceful shutdown. cmd/simd hosts
// it; cmd/simctl and the service.Client speak to it.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/events"
	"repro/internal/faultfs"
	"repro/internal/harness"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/tracestore"
)

// Options configures a server.
type Options struct {
	// Workers is the job-queue width and the per-campaign fan-out
	// (<=0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds pending jobs (<=0: 256). Submissions beyond
	// it get 429 with a Retry-After estimate.
	QueueDepth int
	// CacheSize bounds each content-addressed cache (<=0: 64k
	// entries).
	CacheSize int
	// TraceDir roots the durable trace store (empty: "simd-traces"
	// under the OS temp directory). The directory is created lazily
	// on the first trace operation.
	TraceDir string
	// MaxBodyBytes caps JSON request bodies; oversized requests get
	// 413 (<=0: 1 MiB).
	MaxBodyBytes int64
	// MaxTraceBytes caps trace uploads, which stream and are far
	// larger than control-plane bodies (<=0: 256 MiB).
	MaxTraceBytes int64
	// DataDir roots the crash-safety state (job journal + durable
	// result store). It is only used by NewDurableServer; a plain
	// NewServer is ephemeral.
	DataDir string
	// JobTimeout bounds each job's run time once a worker picks it
	// up; requests may override it per-job with the X-Simd-Timeout
	// header. <= 0 means no default deadline.
	JobTimeout time.Duration
	// DataFS overrides the filesystem under DataDir and TraceDir
	// (fault-injection tests substitute a faultfs.Fault). Nil means
	// the real OS.
	DataFS faultfs.FS
	// Logger receives the structured access log and server events.
	// Nil means no logging (library embedders and tests pay nothing).
	Logger *slog.Logger
	// SlowRequest promotes requests slower than this to WARN in the
	// access log (<=0: 1s). The same threshold drives tail-based trace
	// sampling: traces at or past it are pinned.
	SlowRequest time.Duration
	// TraceBuffer bounds the execution-trace rings: up to this many
	// recent traces plus up to this many pinned (error/slow) traces
	// stay queryable at /debug/traces (<=0: 256).
	TraceBuffer int
	// KeepAlive is the idle heartbeat period of the streaming endpoints
	// (SSE comments on /events, blank lines on /stream) so idle proxies
	// don't sever long-running watches (<=0: 15s).
	KeepAlive time.Duration
}

// timeoutHeader carries a per-request job deadline override, as a Go
// duration ("90s", "5m").
const timeoutHeader = "X-Simd-Timeout"

// Server wires the executor, queue, caches and metrics behind an
// http.Handler.
type Server struct {
	exec      *Executor
	reg       *obs.Registry
	queue     *Queue
	points    *Cache[campaign.Outcome]
	campaigns *Cache[*CampaignResult]
	advices   *Cache[AdviseResponse]
	clusters  *Cache[ClusterResponse]
	replays   *Cache[replayResult]
	mux       *http.ServeMux
	logger    *slog.Logger
	slowReq   time.Duration
	tracer    *obs.Tracer
	events    *events.Bus
	keepAlive time.Duration

	httpSeconds   *obs.HistogramVec // end-to-end request latency by route and status
	pointSeconds  *obs.HistogramVec // fresh point compute latency by fidelity (cache misses only)
	lookupSeconds *obs.HistogramVec // content-addressed cache hit latency by cache

	maxBody    int64
	maxTrace   int64
	jobTimeout time.Duration

	traceDir string
	traceFS  faultfs.FS
	storeMu  sync.Mutex
	store    *tracestore.Store // lazily opened; guarded by storeMu
	storeErr error             // guarded by storeMu

	// Crash-safety state, nil on an ephemeral server (NewServer):
	// every accepted job is journaled before its 202 and replayed by
	// NewDurableServer at boot. The result store is reached through
	// the caches it backs.
	journal *journal.Journal

	panics      atomic.Int64 // recovered handler panics
	persistErrs atomic.Int64 // failed result persists (non-fatal)
	journalErrs atomic.Int64 // failed terminal-state appends (non-fatal)
	closing     atomic.Bool  // shutdown in progress (cancel = interrupted, not failed)
}

// NewServer builds a ready-to-serve service. Every part that has
// something to report registers its metric families on the server's
// registry as it is built.
func NewServer(opt Options) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		exec:       NewExecutor(),
		reg:        reg,
		queue:      NewQueue(opt.Workers, opt.QueueDepth, 0, reg),
		points:     NewCache[campaign.Outcome]("point", reg, opt.CacheSize),
		campaigns:  NewCache[*CampaignResult]("campaign", reg, opt.CacheSize),
		advices:    NewCache[AdviseResponse]("advice", reg, opt.CacheSize),
		clusters:   NewCache[ClusterResponse]("cluster", reg, opt.CacheSize),
		replays:    NewCache[replayResult]("replay", reg, opt.CacheSize),
		mux:        http.NewServeMux(),
		logger:     opt.Logger,
		slowReq:    opt.SlowRequest,
		events:     events.NewBus(),
		keepAlive:  opt.KeepAlive,
		maxBody:    opt.MaxBodyBytes,
		maxTrace:   opt.MaxTraceBytes,
		jobTimeout: opt.JobTimeout,
		traceDir:   opt.TraceDir,
		traceFS:    opt.DataFS,
	}
	if s.logger == nil {
		s.logger = obs.NopLogger()
	}
	if s.slowReq <= 0 {
		s.slowReq = time.Second
	}
	if s.keepAlive <= 0 {
		s.keepAlive = 15 * time.Second
	}
	s.tracer = obs.NewTracer(opt.TraceBuffer, s.slowReq)
	s.registerServer()
	s.tracer.Register(reg)
	s.events.Register(reg)
	obs.RegisterRuntime(reg)
	if s.maxBody <= 0 {
		s.maxBody = 1 << 20
	}
	if s.maxTrace <= 0 {
		s.maxTrace = 256 << 20
	}
	if s.traceDir == "" {
		s.traceDir = filepath.Join(os.TempDir(), "simd-traces")
	}
	if s.traceFS == nil {
		s.traceFS = faultfs.OS{}
	}
	// Job state transitions and progress ticks fan out to the live
	// event bus so any number of watchers follow a job without polling
	// it; installed before any route can submit.
	s.queue.OnEvent(s.events.Publish)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /v1/workloads", s.handleWorkloads)
	s.route("GET /v1/experiments", s.handleExperiments)
	s.route("POST /v1/run", s.handleRun)
	s.route("POST /v1/advise", s.handleAdvise)
	s.route("POST /v1/cluster", s.handleCluster)
	s.route("POST /v1/replay", s.handleReplay)
	s.route("POST /v1/traces", s.handleTraceUpload)
	s.route("GET /v1/traces", s.handleTraceList)
	s.route("GET /v1/traces/{id}", s.handleTraceGet)
	s.route("DELETE /v1/traces/{id}", s.handleTraceDelete)
	s.route("POST /v1/campaigns", s.handleSubmitCampaign)
	s.route("GET /v1/jobs/{id}", s.handleJob)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.route("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.route("GET /v1/jobs/{id}/events", s.handleJobEvents)
	// Execution traces: the span trees tail sampling retained.
	s.route("GET /debug/traces", s.handleDebugTraces)
	s.route("GET /debug/traces/{id}", s.handleDebugTrace)
	// Runtime profiling, served through the same stack so profile
	// scrapes appear in the access log and latency histogram.
	s.route("GET /debug/pprof/", pprof.Index)
	s.route("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.route("GET /debug/pprof/profile", pprof.Profile)
	s.route("GET /debug/pprof/symbol", pprof.Symbol)
	s.route("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// traceStore opens the durable trace store on first use. The open is
// lazy so a server that never touches traces never creates the
// directory, and an open failure (unwritable path) surfaces on the
// trace endpoints instead of killing construction. A failed open is
// retried on the next call (the operator may fix the path live).
func (s *Server) traceStore() (*tracestore.Store, error) {
	s.storeMu.Lock()
	defer s.storeMu.Unlock()
	if s.store == nil {
		s.store, s.storeErr = tracestore.OpenFS(s.traceFS, s.traceDir)
		if s.store != nil {
			// The store's gauges exist only once it does: a scrape must
			// not create the directory as a side effect.
			s.registerTraceStore(s.store)
		}
	}
	return s.store, s.storeErr
}

// decodeBody decodes a JSON request body bounded by the service's
// body cap. It writes the HTTP error itself — 413 when the cap is
// exceeded, 400 for malformed JSON or a field the request type does
// not declare (the message names it, so a misspelt "pases" fails
// instead of silently running the default) — and reports whether
// decoding succeeded.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("service: %s exceeds the %d-byte body limit", what, mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad %s: %w", what, err))
		return false
	}
	return true
}

// route registers a handler that tags the request context with its
// matched pattern — the label the access log, request counter and
// latency histogram all key on. Requests no pattern matches (404/405)
// never reach a tag and land under the single "unmatched" label, so a
// URL scanner cannot mint unbounded label values.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		obs.SetRoute(r.Context(), pattern)
		h(w, r)
	})
}

// Handler returns the HTTP handler: the mux behind the composable
// middleware stack. Outermost first: request-ID assignment (so every
// later layer and the error envelope see the ID), execution tracing
// (the trace ID is the request ID, so it must sit just inside), the
// structured access log, request latency/counting, and panic recovery
// (one bad request becomes a 500 plus a metric instead of a dead
// connection).
func (s *Server) Handler() http.Handler {
	return obs.Chain(s.mux,
		obs.RequestIDs(),
		obs.Tracing(s.tracer),
		obs.Logging(s.logger, s.slowReq),
		obs.Timing(func(r *http.Request, route string, status int, _ int64, elapsed time.Duration) {
			// The request ID doubles as the trace ID, so the histogram
			// bucket's exemplar links straight to the span tree.
			s.httpSeconds.ObserveExemplar(elapsed.Seconds(), obs.RequestID(r.Context()), route, strconv.Itoa(status))
		}),
		obs.Recover(func(w http.ResponseWriter, r *http.Request, v any) {
			s.panics.Add(1)
			s.logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
				slog.Any("panic", v),
				slog.String("path", r.URL.Path),
				slog.String("request_id", obs.RequestID(r.Context())))
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: internal error: %v", v))
		}),
	)
}

// Close drains the job queue (bounded by ctx); call it after
// http.Server.Shutdown so in-flight campaigns finish before the
// process exits. Jobs the deadline forces it to abandon stay recorded
// in the journal with no terminal state (their running goroutines
// additionally journal StateInterrupted as they observe the cancel),
// so the next boot re-enqueues exactly what was lost; Unfinished
// reports them for shutdown logging.
func (s *Server) Close(ctx context.Context) error {
	s.closing.Store(true)
	err := s.queue.Close(ctx)
	if s.journal != nil {
		for _, info := range s.queue.Unfinished() {
			s.journalAppend(journal.Entry{State: journal.StateInterrupted, Job: info.ID, Kind: info.Kind})
		}
		s.journal.Close()
	}
	return err
}

// Unfinished lists jobs still queued or running — what a forced
// shutdown abandons. cmd/simd logs them on exit.
func (s *Server) Unfinished() []JobInfo { return s.queue.Unfinished() }

// JobInfo returns the current snapshot of one job. cmd/simd uses it
// after the drain to report which jobs finished and which were cut
// short.
func (s *Server) JobInfo(id string) (JobInfo, bool) { return s.queue.Get(id) }

// writeJSON writes a compact JSON response (campaign results run to
// hundreds of points; clients pretty-print if they want to).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps service errors to HTTP statuses. The request ID the
// middleware already stamped on the response headers rides along in
// the envelope, so a client error report carries its correlation key.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), RequestID: w.Header().Get(obs.RequestIDHeader)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.Render(w)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	sys, err := s.exec.System(r.URL.Query().Get("sku"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var out []WorkloadInfo
	for _, m := range sys.Workloads() {
		i := m.Info()
		out = append(out, WorkloadInfo{
			Name: i.Name, Class: i.Class, Pattern: i.Pattern,
			MaxScale: i.MaxScale.String(), Metric: i.Metric,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	var out []ExperimentInfo
	for _, e := range harness.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// runPoint executes one point through the content-addressed cache.
func (s *Server) runPoint(ctx context.Context, p campaign.Point, key string) (campaign.Outcome, bool, error) {
	return s.lookupPoint(ctx, p, key, func(ctx context.Context, _ *obs.Span) (campaign.Outcome, error) {
		return s.exec.RunPoint(ctx, p)
	})
}

// lookupPoint serves p, whose p.Key() is key, from the point cache,
// running compute under a compute span on a miss. Callers compute the
// key once and pass it along, so every record that retains it (cache,
// span, journal, response) shares one string.
func (s *Server) lookupPoint(ctx context.Context, p campaign.Point, key string, compute func(context.Context, *obs.Span) (campaign.Outcome, error)) (campaign.Outcome, bool, error) {
	ctx, lookupSpan := obs.StartSpan(ctx, "cache.point")
	lookupSpan.SetAttr("key", key)
	lookup := time.Now()
	out, cached, err := s.points.GetOrCompute(key, func() (campaign.Outcome, error) {
		computeCtx, computeSpan := obs.StartSpan(ctx, "compute")
		computeSpan.SetAttr("workload", p.Workload)
		start := time.Now()
		out, err := compute(computeCtx, computeSpan)
		computeSpan.SetError(err != nil)
		computeSpan.End()
		if err == nil {
			fidelity := p.Fidelity
			if fidelity == "" {
				fidelity = campaign.FidelityModel
			}
			s.pointSeconds.Observe(time.Since(start).Seconds(), fidelity)
		}
		return out, err
	})
	if err == nil && cached {
		s.lookupSeconds.Observe(time.Since(lookup).Seconds(), "point")
	}
	lookupSpan.SetAttr("hit", strconv.FormatBool(cached))
	lookupSpan.SetError(err != nil)
	lookupSpan.End()
	return out, cached, err
}

// journalAppend records a job-state transition when durability is on.
// Append failures on terminal transitions are counted, not fatal: the
// in-memory state is already correct, and the worst outcome of a lost
// terminal record is a redundant (content-addressed, cached) re-run
// after a restart.
func (s *Server) journalAppend(e journal.Entry) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(e); err != nil {
		s.journalErrs.Add(1)
	}
}

// handleRun is the synchronous single-point fast path.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !s.decodeBody(w, r, "run request", &req) {
		return
	}
	p, err := req.Point()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	key := p.Key()
	out, cached, err := s.runPoint(r.Context(), p, key)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, runResponse(out, key, cached, float64(time.Since(start).Microseconds())/1000))
}

// handleAdvise is the synchronous mode-recommendation path: resolve
// the request to its canonical form, answer from the content-addressed
// advice cache, compute through the placement engine on a miss.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req AdviseRequest
	if !s.decodeBody(w, r, "advise request", &req) {
		return
	}
	q, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	resp, cached, err := s.advices.GetOrCompute(q.Key(), func() (AdviseResponse, error) {
		return s.exec.Advise(q)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if cached {
		s.lookupSeconds.Observe(time.Since(start).Seconds(), "advice")
	}
	resp.Cached = cached
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// handleCluster is the synchronous multi-node scaling path: resolve
// the request to its canonical form, answer from the content-addressed
// cluster cache, compute through the cluster model on a miss.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req ClusterRequest
	if !s.decodeBody(w, r, "cluster request", &req) {
		return
	}
	q, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	resp, cached, err := s.clusters.GetOrCompute(q.Key(), func() (ClusterResponse, error) {
		return s.exec.ClusterSweep(q)
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if cached {
		s.lookupSeconds.Observe(time.Since(start).Seconds(), "cluster")
	}
	resp.Cached = cached
	resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, http.StatusOK, resp)
}

// runCampaign executes a campaign: points fan out over a bounded pool
// (each point through the shared cache), experiments run alongside,
// and the whole result is content-addressed so an identical
// resubmission never recomputes anything.
// key is spec.CampaignKey(), derived once by the submitting handler
// (or read back from the journal) and passed along.
func (s *Server) runCampaign(ctx context.Context, jobID, key string, spec campaign.Spec, progress func(done, total int)) (*CampaignResult, bool, error) {
	if err := s.checkTraces(spec); err != nil {
		return nil, false, err
	}
	lookup := time.Now()
	lookupCtx, lookupSpan := obs.StartSpan(ctx, "cache.campaign")
	res, cached, err := s.campaigns.GetOrCompute(key, func() (*CampaignResult, error) {
		return s.computeCampaign(lookupCtx, jobID, key, spec, progress)
	})
	lookupSpan.SetAttr("hit", strconv.FormatBool(cached))
	lookupSpan.SetError(err != nil)
	lookupSpan.End()
	if err != nil {
		return nil, false, err
	}
	if cached {
		s.lookupSeconds.Observe(time.Since(lookup).Seconds(), "campaign")
		res = cachedCopy(res)
	}
	return res, cached, nil
}

// cachedCopy is a cached campaign result as served: a copy, so the
// Cached flag never mutates the stored result.
func cachedCopy(res *CampaignResult) *CampaignResult {
	cp := *res
	cp.Cached = true
	return &cp
}

// checkTraces fails a replay spec that names a trace the store does
// not hold. It runs before every campaign-cache lookup, mirroring
// handleReplay: a deleted trace must fail even when the identical
// campaign is cached (re-uploading the same content revalidates the
// entry).
func (s *Server) checkTraces(spec campaign.Spec) error {
	if spec.Fidelity != campaign.FidelityReplay {
		return nil
	}
	st, err := s.traceStore()
	if err != nil {
		return err
	}
	for _, id := range spec.Traces {
		if _, ok := st.Get(strings.TrimSpace(id)); !ok {
			return fmt.Errorf("%w %q", tracestore.ErrNotFound, strings.TrimSpace(id))
		}
	}
	return nil
}

// peekCampaign returns spec's result when the campaign cache already
// holds it — a filled memory entry, else the durable result store. It
// never computes and never waits on an in-flight fill of key, and a
// replay spec whose traces are not all stored is never served from it.
// A hit is recorded as a cache.campaign span under the request's root.
func (s *Server) peekCampaign(ctx context.Context, key string, spec campaign.Spec) (*CampaignResult, bool) {
	if s.checkTraces(spec) != nil {
		return nil, false
	}
	start := time.Now()
	res, ok := s.campaigns.Peek(key)
	if !ok {
		return nil, false
	}
	end := time.Now()
	s.lookupSeconds.Observe(end.Sub(start).Seconds(), "campaign")
	if tr := obs.TraceFrom(ctx); tr != nil {
		sp := tr.NewSpan("cache.campaign", obs.RootSpanID, start)
		sp.SetAttr("hit", "true")
		sp.EndAt(end)
	}
	return cachedCopy(res), true
}

func (s *Server) computeCampaign(ctx context.Context, jobID, key string, spec campaign.Spec, progress func(done, total int)) (*CampaignResult, error) {
	start := time.Now()
	points, raw, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	exps, err := harness.Resolve(spec.Experiments)
	if err != nil {
		return nil, err
	}
	total := len(points) + len(exps)
	progress(0, total)

	sku := spec.SKU
	if sku == "" {
		sku = campaign.DefaultSKU
	}
	// Validate the SKU, workload names and trace ids up front so a bad
	// spec fails as one request error instead of N point errors.
	sys, err := s.exec.System(sku)
	if err != nil {
		return nil, err
	}
	// A replay group's work is its stored trace's length (pointGroups).
	accesses := make(map[string]int64)
	for _, p := range points {
		if p.Fidelity == campaign.FidelityReplay {
			st, err := s.traceStore()
			if err != nil {
				return nil, err
			}
			meta, ok := st.Get(p.TraceID)
			if !ok {
				return nil, fmt.Errorf("%w %q", tracestore.ErrNotFound, p.TraceID)
			}
			accesses[p.TraceID] = meta.Accesses
			continue
		}
		if _, err := sys.Workload(p.Workload); err != nil {
			return nil, err
		}
	}

	outcomes := make([]campaign.Outcome, len(points))
	keys := make([]string, len(points))
	cachedFlags := make([]bool, len(points))
	errs := make([]error, len(points))
	var done int
	var mu sync.Mutex
	bump := func() {
		mu.Lock()
		done++
		d := done
		mu.Unlock()
		progress(d, total)
	}

	// Groups run longest first; cancellation is honoured at group
	// boundaries.
	groups := pointGroups(points, accesses)
	workers := s.queue.Workers()
	if workers > len(groups) {
		workers = len(groups)
	}
	var next int
	var idxMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				idxMu.Lock()
				g := next
				next++
				idxMu.Unlock()
				if g >= len(groups) {
					return
				}
				grp := groups[g]
				shared := s.streamCompute(grp.stream)
				for j, i := range grp.idx {
					keys[i] = points[i].Key()
					if shared == nil {
						outcomes[i], cachedFlags[i], errs[i] = s.runPoint(ctx, points[i], keys[i])
					} else {
						outcomes[i], cachedFlags[i], errs[i] = s.lookupPoint(ctx, points[i], keys[i], func(ctx context.Context, span *obs.Span) (campaign.Outcome, error) {
							return shared(ctx, j, span)
						})
					}
					if jobID != "" {
						ev := events.Event{Job: jobID, Type: events.TypePoint,
							Point: keys[i], Workload: points[i].Workload, Cached: cachedFlags[i]}
						if errs[i] != nil {
							ev.Error = errs[i].Error()
						}
						s.events.Publish(ev)
					}
					bump()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Presized: the campaign cache and the job record keep this slice
	// as long as they keep the result.
	res := &CampaignResult{Key: key, Name: spec.Name, Expanded: raw, Points: len(points),
		Results: make([]RunResponse, len(outcomes))}
	for i, o := range outcomes {
		if cachedFlags[i] {
			res.CacheHits++
		}
		res.Results[i] = runResponse(o, keys[i], cachedFlags[i], 0)
	}
	res.Tables = campaign.Tables(outcomes)
	// Figure panels are points too: they run through the point cache,
	// so a Fig. 2 cell and a /v1/run of the same point are one entry.
	run := harness.Runner{SKU: sku, Sys: sys, Eval: func(ctx context.Context, p campaign.Point) (campaign.Outcome, error) {
		out, _, err := s.runPoint(ctx, p, p.Key())
		return out, err
	}}
	for _, id := range exps {
		e, _ := harness.ByID(id) // exps came from Resolve
		tbl, err := run.Run(ctx, e)
		if err != nil {
			return nil, err
		}
		res.Experiments = append(res.Experiments, ExperimentResult{ID: e.ID, Title: e.Title, Rendered: tbl.Render(), CSV: tbl.RenderCSV()})
		bump()
	}
	res.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
	return res, nil
}

// campaignJob is the queue work for one accepted campaign: run it,
// file the result on the job record, journal the terminal state. The
// terminal journal append is the job's durability cost, recorded as
// its persist stage. A cancellation observed while the server is
// shutting down journals StateInterrupted (re-run next boot) instead
// of StateFailed.
func (s *Server) campaignJob(id, key, rid string, spec campaign.Spec) JobFunc {
	return func(ctx context.Context, progress func(done, total int)) error {
		res, _, err := s.runCampaign(ctx, id, key, spec, progress)
		entry := journal.Entry{State: journal.StateFailed, Job: id, Kind: "campaign", Key: key, Req: rid}
		switch {
		case err == nil:
			s.queue.SetResult(id, res)
			entry.State = journal.StateDone
			entry.Done = res.Points + len(res.Experiments)
			entry.Total = entry.Done
		case errors.Is(err, context.Canceled) && s.closing.Load():
			entry.State, entry.Error = journal.StateInterrupted, err.Error()
		default:
			entry.Error = err.Error()
		}
		persist := time.Now()
		s.journalAppend(entry)
		s.queue.AddStage(id, "persist", persist, time.Since(persist))
		return err
	}
}

// handleSubmitCampaign accepts a campaign spec, runs it as a queued
// job, and returns the job record — plus the result when ?wait=1 is
// set or the campaign cache already has it. A campaign the cache
// holds is answered here, as a job born finished (serveCached). On a
// durable server the accepted record of any other campaign hits the
// journal BEFORE anything is enqueued or acknowledged: a crash after
// the append owes the client an execution; a crash before it owes
// nothing, because no 202 was written. A full queue answers 429 with
// a Retry-After computed from observed job service times.
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	var spec campaign.Spec
	if !s.decodeBody(w, r, "campaign spec", &spec) {
		return
	}
	// Reject malformed specs before queueing so the client gets a 400,
	// not a failed job. The experiment axis is canonical before the key
	// is: reordered, repeated or "all" spellings of one set are one
	// campaign.
	exps, err := harness.Resolve(spec.Experiments)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad campaign spec: %w", err))
		return
	}
	spec.Experiments = exps
	key, err := spec.CampaignKey()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := s.jobTimeout
	if h := r.Header.Get(timeoutHeader); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: bad %s %q: want a positive Go duration like \"90s\"", timeoutHeader, h))
			return
		}
		timeout = d
	}
	wait := r.URL.Query().Get("wait") == "1"
	var base context.Context
	if wait {
		// Tie the job to the request: a client that disconnects while
		// waiting cancels the simulation instead of leaking the worker.
		base = r.Context()
	}

	rid := obs.RequestID(r.Context())
	if res, ok := s.peekCampaign(r.Context(), key, spec); ok {
		s.serveCached(w, r, key, rid, res)
		return
	}
	id := s.queue.NextID()
	if s.journal != nil {
		raw, _ := json.Marshal(spec)
		if err := s.journal.Append(journal.Entry{State: journal.StateAccepted, Job: id, Kind: "campaign", Key: key, Req: rid, Spec: raw}); err != nil {
			// Refuse work the journal cannot record: accepting it would
			// break the "202 implies durable" contract.
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: journal write failed, not accepting work: %w", err))
			return
		}
	}
	info, err := s.queue.SubmitJob("campaign",
		JobOptions{ID: id, Base: base, Timeout: timeout, RequestID: rid, Trace: obs.TraceFrom(r.Context())},
		s.campaignJob(id, key, rid, spec))
	if err != nil {
		// The accepted record is already durable; close it out so a
		// restart does not resurrect a job the client was told to retry.
		s.journalAppend(journal.Entry{State: journal.StateFailed, Job: id, Kind: "campaign", Key: key, Req: rid, Error: err.Error()})
		if errors.Is(err, ErrQueueFull) {
			retry := s.queue.EstimateWait()
			w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(retry.Seconds()))))
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("%w; retry in %s", err, retry.Round(time.Second)))
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}

	if wait {
		final, err := s.queue.Wait(r.Context(), info.ID)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, CampaignResponse{Job: final, Result: s.jobResult(info.ID)})
		return
	}
	writeJSON(w, http.StatusAccepted, CampaignResponse{Job: info})
}

// serveCached answers a submission whose result the campaign cache
// already holds, with or without ?wait=1: a 200 carrying a done job
// and the result, with no accepted record, queue hop or worker. The
// job's one done record is durable before the 200, as the accepted
// record is before a 202; a journal that cannot write it refuses the
// work with a 500 and registers nothing.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key, rid string, res *CampaignResult) {
	id := s.queue.NextID()
	n := res.Points + len(res.Experiments)
	start := time.Now()
	if s.journal != nil {
		if err := s.journal.Append(journal.Entry{State: journal.StateDone, Job: id, Kind: "campaign", Key: key, Req: rid, Done: n, Total: n}); err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("service: journal write failed, not accepting work: %w", err))
			return
		}
	}
	finished := time.Now()
	info, err := s.queue.AddDone(
		JobInfo{ID: id, Kind: "campaign", State: JobDone, Done: n, Total: n,
			Submitted: start, Started: &start, Finished: &finished, RequestID: rid},
		res, obs.TraceFrom(r.Context()))
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, CampaignResponse{Job: info, Result: res})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	info, ok := s.queue.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, CampaignResponse{Job: info, Result: s.jobResult(info.ID)})
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, err := s.queue.Wait(r.Context(), id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if info.State == JobFailed {
		writeJSON(w, http.StatusOK, CampaignResponse{Job: info})
		return
	}
	writeJSON(w, http.StatusOK, CampaignResponse{Job: info, Result: s.jobResult(id)})
}

// jobResult returns a job's campaign result. A job restored from the
// journal resolves its result key through the campaign cache: memory
// first, then disk.
func (s *Server) jobResult(id string) *CampaignResult {
	res, key := s.queue.Result(id)
	if res == nil && key != "" {
		res, _ = s.campaigns.Get(key)
	}
	return res
}
