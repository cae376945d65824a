package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
)

// JobState is the lifecycle of a submitted job.
type JobState string

// Job lifecycle states.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ErrQueueFull is returned by SubmitJob when the bounded queue cannot
// accept more work; HTTP maps it to 429 with a Retry-After computed
// from EstimateWait so clients back off by the right amount.
var ErrQueueFull = errors.New("service: job queue full")

// ErrShutdown is returned by SubmitJob after Close.
var ErrShutdown = errors.New("service: queue shut down")

// JobFunc is the work a job performs. progress reports (done, total)
// steps for streamed campaign progress; single runs never call it.
type JobFunc func(ctx context.Context, progress func(done, total int)) error

// JobInfo is the externally visible snapshot of a job. Whether a
// campaign was served from the result cache is reported on its
// CampaignResult, not here.
//
// Started and Finished are pointers because time.Time is a struct, so
// `omitempty` never fires on the value form and queued jobs would
// serialize the zero time ("0001-01-01T00:00:00Z") instead of omitting
// the field. They are set exactly once (under the job mutex) and never
// mutated afterwards, so sharing the pointers across snapshots is
// safe.
type JobInfo struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"` // "run" or "campaign"
	State     JobState   `json:"state"`
	Done      int        `json:"done"`
	Total     int        `json:"total"`
	Error     string     `json:"error,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// RequestID is the X-Request-Id of the HTTP request that submitted
	// the job, so one correlation key links the access log, the job
	// record, the journal and the metrics a request produced.
	RequestID string `json:"request_id,omitempty"`
	// QueueMS and RunMS are time spent waiting for a worker and time
	// spent executing, derived from Submitted, Started and Finished
	// whenever a snapshot is taken. They appear once the corresponding
	// stage completes.
	QueueMS float64 `json:"queue_ms,omitempty"`
	RunMS   float64 `json:"run_ms,omitempty"`
	// Timeline is the job's stage record: one entry per completed stage
	// (queue_wait, persist, execute), each with its start time and
	// duration, appended as stages complete. It lives in memory only: a
	// job restored from the journal after a restart has none.
	Timeline []StageSpan `json:"timeline,omitempty"`
}

// StageSpan is one completed stage of a job's lifecycle.
type StageSpan struct {
	Stage string    `json:"stage"`
	Start time.Time `json:"start"`
	MS    float64   `json:"ms"`
}

// JobOptions tunes one submission beyond the defaults.
type JobOptions struct {
	// Base, when non-nil, cancels the job when it is cancelled — the
	// submitting request's context for wait=1 requests, so a client
	// disconnect stops the simulation instead of leaking the worker.
	Base context.Context
	// Timeout bounds the job's run time once a worker picks it up.
	// <= 0 means no per-job deadline.
	Timeout time.Duration
	// ID forces the job ID (journal replay re-enqueues interrupted
	// jobs under their original IDs). Empty allocates the next
	// sequence number.
	ID string
	// RequestID is the correlation key of the submitting HTTP request,
	// carried on every snapshot of the job.
	RequestID string
	// Trace, when non-nil, is the submitting request's execution trace:
	// the queue records queue-wait and execute spans on it and installs
	// it in the job's run context so the work's own spans (cache
	// probes, point computes, persists) join the same tree even after
	// the HTTP response has gone out.
	Trace *obs.Trace
}

// job is the internal record: a snapshot guarded by mu plus the work.
// The work — fn, base and trace — is dropped when the job finishes: a
// retained record must not pin its request's context or its trace
// after the tracer's ring has evicted it.
type job struct {
	mu sync.Mutex
	// info is the live job record. guarded by mu.
	info JobInfo
	// result is a finished campaign's result, kept on the record so it
	// is pruned with it. guarded by mu.
	result   *CampaignResult
	fn       JobFunc
	base     context.Context // optional extra cancel signal
	timeout  time.Duration
	trace    *obs.Trace    // submitting request's trace, or nil
	finished chan struct{} // closed on done/failed
	// execID is the execute span's ID, the parent of the stages the
	// job body records; set by the worker before the body runs.
	execID int
	// resultKey is the campaign key of a finished job restored from
	// the journal: its result is read on demand, not held.
	resultKey string
}

func (j *job) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := j.info
	// The timeline keeps growing while the job runs; copy it so a
	// handed-out snapshot never aliases the live slice.
	if len(j.info.Timeline) > 0 {
		info.Timeline = append([]StageSpan(nil), j.info.Timeline...)
	}
	if info.Started != nil {
		info.QueueMS = durMS(info.Started.Sub(info.Submitted))
		if info.Finished != nil {
			info.RunMS = durMS(info.Finished.Sub(*info.Started))
		}
	}
	return info
}

// span opens a stage span on the job's trace (nil outside a trace).
func (j *job) span(stage string, parent int, start time.Time) *obs.Span {
	if j.trace == nil {
		return nil
	}
	return j.trace.NewSpan(stage, parent, start)
}

// durMS renders a duration in milliseconds at microsecond resolution.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Queue is a bounded job queue drained by a fixed worker pool.
// Completed jobs are retained (up to a cap) for result polling.
type Queue struct {
	pending chan *job
	workers int

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu
	order    []string        // submission order, for retention pruning; guarded by mu
	closed   bool            // guarded by mu
	retained int

	seq       atomic.Int64
	running   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	// serviceEWMA tracks an exponentially weighted moving average of
	// job service time (seconds), feeding Retry-After estimates.
	ewmaMu      sync.Mutex
	serviceEWMA float64 // guarded by ewmaMu

	// stageSeconds is per-job stage latency: queue_wait, execute,
	// persist.
	stageSeconds *obs.HistogramVec

	// onEvent receives every job state transition and progress tick —
	// the server points it at the live event bus before traffic.
	onEvent func(events.Event)

	wg     sync.WaitGroup
	cancel context.CancelFunc
}

// NewQueue starts a queue with the given worker count (<=0:
// GOMAXPROCS) and pending-queue depth (<=0: 256). retain bounds how
// many finished jobs stay queryable (<=0: 4096). The queue registers
// its stage histogram and its depth and outcome counts on reg.
//
//simd:ctxroot — the worker pool outlives any request; its context is the process's, cancelled only by Close.
func NewQueue(workers, depth, retain int, reg *obs.Registry) *Queue {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 256
	}
	if retain <= 0 {
		retain = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		pending:  make(chan *job, depth),
		workers:  workers,
		jobs:     make(map[string]*job),
		retained: retain,
		cancel:   cancel,
		onEvent:  func(events.Event) {},
		stageSeconds: reg.Histogram("simd_job_stage_seconds", "Job stage latency: queue_wait, execute, persist.",
			[]string{"stage"}, nil),
	}
	pending := func() float64 { return float64(len(q.pending)) }
	reg.GaugeFunc("simd_queue_depth", "Jobs waiting in the bounded queue right now.", pending)
	reg.GaugeFunc("simd_queue_capacity", "Bound of the pending-job queue.",
		func() float64 { return float64(cap(q.pending)) })
	reg.GaugeFunc("simd_jobs_pending", "Jobs waiting in the bounded queue.", pending)
	reg.GaugeFunc("simd_jobs_running", "Jobs currently executing.", count(&q.running))
	for _, out := range []struct {
		state JobState
		n     *atomic.Int64
	}{{JobDone, &q.completed}, {JobFailed, &q.failed}} {
		reg.CounterFunc("simd_jobs_finished_total", "Jobs finished by outcome.", count(out.n), "state", string(out.state))
	}
	for i := 0; i < workers; i++ {
		q.wg.Add(1)
		go q.worker(ctx)
	}
	return q
}

// Workers returns the pool width (campaigns reuse it for their
// internal fan-out).
func (q *Queue) Workers() int { return q.workers }

// OnEvent installs the live-feed observer. Call it once, before any
// submissions — it is not synchronized against running jobs.
func (q *Queue) OnEvent(fn func(events.Event)) { q.onEvent = fn }

// stateEvent converts a job snapshot into its bus event. Terminal
// states carry Final so feeds know to hang up.
func stateEvent(info JobInfo) events.Event {
	return events.Event{
		Job: info.ID, Type: events.TypeState, State: string(info.State),
		Done: info.Done, Total: info.Total, Error: info.Error,
		Final: info.State == JobDone || info.State == JobFailed,
	}
}

// recordStage is the one writer of a completed job stage: the timeline
// entry, the stage histogram sample and the span sp on the job's trace
// (nil outside a trace) all come from the same start and duration, so
// the three views agree by construction.
func (q *Queue) recordStage(j *job, sp *obs.Span, stage string, start time.Time, d time.Duration) {
	j.mu.Lock()
	j.info.Timeline = append(j.info.Timeline, StageSpan{Stage: stage, Start: start, MS: durMS(d)})
	j.mu.Unlock()
	q.stageSeconds.Observe(d.Seconds(), stage)
	sp.EndAt(start.Add(d))
}

// AddStage records a completed stage of a running job — job bodies use
// it for stages the queue cannot see (the terminal persist of a
// campaign result, say). Its span nests under the job's execute span.
func (q *Queue) AddStage(id, stage string, start time.Time, d time.Duration) {
	if j := q.lookup(id); j != nil {
		q.recordStage(j, j.span(stage, j.execID, start), stage, start, d)
	}
}

// SetResult files a campaign's result on its job record, so it lives
// exactly as long as the record does.
func (q *Queue) SetResult(id string, res *CampaignResult) {
	if j := q.lookup(id); j != nil {
		j.mu.Lock()
		j.result = res
		j.mu.Unlock()
	}
}

// Result returns a job's campaign result, or nil when the job is
// unknown, pruned, failed or still running. A job restored from the
// journal holds no result, only its key, for the caller to resolve.
func (q *Queue) Result(id string) (res *CampaignResult, key string) {
	j := q.lookup(id)
	if j == nil {
		return nil, ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.resultKey
}

// lookup returns a retained job record, or nil.
func (q *Queue) lookup(id string) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.jobs[id]
}

// SubmitJob enqueues work with per-job options (cancellation base,
// deadline, forced ID) and returns its job snapshot. It fails fast
// with ErrQueueFull instead of blocking the HTTP handler. The job is
// only registered once the (non-blocking) enqueue succeeds, so
// rejected submissions leave no trace behind.
func (q *Queue) SubmitJob(kind string, opt JobOptions, fn JobFunc) (JobInfo, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return JobInfo{}, ErrShutdown
	}
	id := opt.ID
	if id == "" {
		id = fmt.Sprintf("j%06d", q.seq.Add(1))
	} else {
		q.bumpSeq(id)
		if _, dup := q.jobs[id]; dup {
			return JobInfo{}, fmt.Errorf("service: duplicate job id %q", id)
		}
	}
	j := &job{
		info:     JobInfo{ID: id, Kind: kind, State: JobQueued, Submitted: time.Now(), RequestID: opt.RequestID},
		fn:       fn,
		base:     opt.Base,
		timeout:  opt.Timeout,
		trace:    opt.Trace,
		finished: make(chan struct{}),
	}
	select {
	case q.pending <- j:
	default:
		return JobInfo{}, ErrQueueFull
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.pruneLocked()
	info := j.snapshot()
	q.onEvent(stateEvent(info))
	return info, nil
}

// NextID reserves the next job ID without enqueuing anything — the
// journal records a job before the queue learns of it, so a crash
// between the two leaves an ID that never collides.
func (q *Queue) NextID() string { return fmt.Sprintf("j%06d", q.seq.Add(1)) }

// bumpSeq advances the ID sequence past a restored job's number so
// fresh submissions never collide with replayed IDs.
func (q *Queue) bumpSeq(id string) {
	var n int64
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return
	}
	for {
		cur := q.seq.Load()
		if cur >= n || q.seq.CompareAndSwap(cur, n) {
			return
		}
	}
}

// RestoreFinished registers a terminal job snapshot replayed from the
// journal, with the key of its campaign result (empty: none), so GET
// /v1/jobs/{id} keeps answering for jobs that finished before a
// restart. The sequence is advanced past the restored ID.
func (q *Queue) RestoreFinished(info JobInfo, resultKey string) {
	_ = q.addFinished(&job{info: info, resultKey: resultKey})
}

// AddDone registers a done campaign job that no worker ever ran — the
// campaign cache answered it at submission — with its result
// attached. Its one stage is persist, the append of its done record
// from info.Started to info.Finished, recorded under the root span of
// tr (nil: none). It counts as a done job.
func (q *Queue) AddDone(info JobInfo, res *CampaignResult, tr *obs.Trace) (JobInfo, error) {
	j := &job{info: info, result: res}
	start := *info.Started
	var sp *obs.Span
	if tr != nil {
		sp = tr.NewSpan("persist", obs.RootSpanID, start)
	}
	q.recordStage(j, sp, "persist", start, info.Finished.Sub(start))
	if err := q.addFinished(j); err != nil {
		return JobInfo{}, err
	}
	q.completed.Add(1)
	return j.snapshot(), nil
}

// addFinished registers a job that is born finished and advances the
// sequence past its ID.
func (q *Queue) addFinished(j *job) error {
	j.finished = make(chan struct{})
	close(j.finished)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrShutdown
	}
	id := j.info.ID
	if _, dup := q.jobs[id]; dup {
		return fmt.Errorf("service: duplicate job id %q", id)
	}
	q.bumpSeq(id)
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.pruneLocked()
	return nil
}

// pruneLocked drops the oldest finished jobs beyond the retention cap.
func (q *Queue) pruneLocked() {
	for len(q.jobs) > q.retained && len(q.order) > 0 {
		oldest := q.order[0]
		j, ok := q.jobs[oldest]
		if ok {
			select {
			case <-j.finished:
			default:
				return // oldest still live; keep everything
			}
			delete(q.jobs, oldest)
		}
		q.order = q.order[1:]
	}
}

// Get returns a job snapshot by ID.
func (q *Queue) Get(id string) (JobInfo, bool) {
	j := q.lookup(id)
	if j == nil {
		return JobInfo{}, false
	}
	return j.snapshot(), true
}

// Wait blocks until the job finishes (or ctx is done) and returns the
// final snapshot.
func (q *Queue) Wait(ctx context.Context, id string) (JobInfo, error) {
	j := q.lookup(id)
	if j == nil {
		return JobInfo{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.finished:
		return j.snapshot(), nil
	case <-ctx.Done():
		return JobInfo{}, ctx.Err()
	}
}

// worker drains the pending channel until shutdown.
func (q *Queue) worker(ctx context.Context) {
	defer q.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j, ok := <-q.pending:
			if !ok {
				return
			}
			q.runJob(ctx, j)
		}
	}
}

func (q *Queue) runJob(ctx context.Context, j *job) {
	started := time.Now()
	j.mu.Lock()
	j.info.State = JobRunning
	j.info.Started = &started
	id, submitted := j.info.ID, j.info.Submitted
	j.mu.Unlock()
	q.recordStage(j, j.span("queue_wait", obs.RootSpanID, submitted), "queue_wait", submitted, started.Sub(submitted))
	q.running.Add(1)
	q.onEvent(stateEvent(j.snapshot()))

	// The execute span opens now and parents everything the job body
	// does; recordStage closes it when the body returns.
	exec := j.span("execute", obs.RootSpanID, started)
	j.execID = exec.ID()

	progress := func(done, total int) {
		j.mu.Lock()
		if total == j.info.Total && done <= j.info.Done {
			// Parallel workers can report out of order; a count that
			// lost the race to a later one must not move progress back.
			j.mu.Unlock()
			return
		}
		j.info.Done, j.info.Total = done, total
		j.mu.Unlock()
		q.onEvent(events.Event{Job: id, Type: events.TypeProgress, Done: done, Total: total})
	}

	// The job runs under the worker context (shutdown), narrowed by
	// the per-job deadline and, for wait=1 submissions, tied to the
	// requesting client's context so a disconnect cancels the work.
	runCtx := ctx
	var cancel context.CancelFunc
	if j.timeout > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, j.timeout)
	} else {
		runCtx, cancel = context.WithCancel(runCtx)
	}
	if j.base != nil {
		stop := context.AfterFunc(j.base, cancel)
		defer stop()
	}
	if exec != nil {
		runCtx = obs.ContextWithSpan(runCtx, j.trace, j.execID)
	}
	err := j.fn(runCtx, progress)
	cancel()

	q.running.Add(-1)
	finished := time.Now()
	q.observeService(finished.Sub(started))
	exec.SetError(err != nil)
	q.recordStage(j, exec, "execute", started, finished.Sub(started))
	j.mu.Lock()
	j.info.Finished = &finished
	j.fn, j.base, j.trace = nil, nil, nil
	if err != nil {
		j.info.State = JobFailed
		j.info.Error = err.Error()
		q.failed.Add(1)
	} else {
		j.info.State = JobDone
		if j.info.Total == 0 {
			j.info.Done, j.info.Total = 1, 1
		}
		q.completed.Add(1)
	}
	j.mu.Unlock()
	close(j.finished)
	q.onEvent(stateEvent(j.snapshot()))
}

// observeService folds one job's service time into the EWMA.
func (q *Queue) observeService(d time.Duration) {
	const alpha = 0.3
	q.ewmaMu.Lock()
	if q.serviceEWMA == 0 {
		q.serviceEWMA = d.Seconds()
	} else {
		q.serviceEWMA = alpha*d.Seconds() + (1-alpha)*q.serviceEWMA
	}
	q.ewmaMu.Unlock()
}

// EstimateWait predicts how long a rejected submission should wait
// before retrying: the queued backlog divided across the worker pool,
// paced by the observed mean service time. With no samples yet it
// falls back to one second per backlog slot. The estimate is clamped
// to [1s, 5m] so Retry-After is always sane.
func (q *Queue) EstimateWait() time.Duration {
	q.ewmaMu.Lock()
	avg := q.serviceEWMA
	q.ewmaMu.Unlock()
	if avg <= 0 {
		avg = 1
	}
	backlog := float64(len(q.pending)+1) + float64(q.running.Load())
	est := time.Duration(avg * backlog / float64(q.workers) * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > 5*time.Minute {
		est = 5 * time.Minute
	}
	return est
}

// Unfinished snapshots every job that is still queued or running —
// what a shutdown must journal as interrupted.
func (q *Queue) Unfinished() []JobInfo {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []JobInfo
	for _, id := range q.order {
		j, ok := q.jobs[id]
		if !ok {
			continue
		}
		select {
		case <-j.finished:
		default:
			out = append(out, j.snapshot())
		}
	}
	return out
}

// Close stops accepting submissions, waits for queued and running
// jobs to drain (bounded by ctx), then stops the workers. It is the
// graceful-shutdown half the HTTP server calls after draining
// connections.
func (q *Queue) Close(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.mu.Unlock()
	close(q.pending)

	done := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		q.cancel()
		return nil
	case <-ctx.Done():
		q.cancel() // abandon stragglers
		return ctx.Err()
	}
}
