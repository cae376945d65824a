// Command simd hosts the simulation service: the paper's what-if
// queries and campaign sweeps behind an HTTP JSON API with a bounded
// job queue, content-addressed result caching, /metrics and /healthz.
//
//	simd -addr 127.0.0.1:8077 -workers 8
//
// Endpoints:
//
//	GET    /healthz                 liveness
//	GET    /metrics                 Prometheus text metrics
//	GET    /v1/workloads            registered workloads
//	GET    /v1/experiments          paper experiments
//	POST   /v1/run                  one synchronous prediction
//	POST   /v1/advise               ranked memory-mode recommendation
//	POST   /v1/cluster              multi-node scaling sweep
//	POST   /v1/traces               ingest a memory trace (streaming)
//	GET    /v1/traces[/{id}]        stored trace metadata
//	DELETE /v1/traces/{id}          delete a stored trace
//	POST   /v1/replay               replay a stored trace
//	POST   /v1/campaigns[?wait=1]   submit a declarative sweep
//	GET    /v1/jobs/{id}            poll a job
//	GET    /v1/jobs/{id}/result     block for a job's result
//	GET    /v1/jobs/{id}/stream     NDJSON progress feed
//	GET    /v1/jobs/{id}/events     SSE live event feed (multi-subscriber)
//	GET    /debug/traces            retained execution-trace summaries
//	GET    /debug/traces/{id}       one request's span tree
//	GET    /debug/pprof/*           runtime profiling
//
// Every request carries an X-Request-Id (generated when the client
// sends none) that appears in the structured access log (-log-level,
// -log-format, -slow-request), in error envelopes, on job records and
// in the journal — one key correlates a request across every layer.
//
// The trace store is durable: -traces names its directory, and a
// restarted server re-serves every previously ingested trace.
//
// With -data the whole service is crash-safe: accepted jobs are
// journaled before the 202 and finished results persisted, so a
// restart over the same directory re-enqueues interrupted work, keeps
// answering for finished job IDs, and serves repeated queries from the
// results on disk, read on demand. -job-timeout bounds every job (clients can override per
// request with the X-Simd-Timeout header).
//
// Use cmd/simctl to talk to it from the shell.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h/--help already printed usage; exit 0
		}
		fmt.Fprintln(os.Stderr, "simd:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it serves until the
// context delivered by signal.NotifyContext (or flag errors) end it.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	workers := fs.Int("workers", 0, "job workers and per-campaign fan-out (0: GOMAXPROCS)")
	depth := fs.Int("queue", 256, "pending job queue depth")
	cacheSize := fs.Int("cache", 0, "result cache bound in entries (0: default 64k)")
	dataDir := fs.String("data", "", "crash-safe data directory: job journal, result store and traces (empty: in-memory only)")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job deadline (0: none; X-Simd-Timeout overrides per request)")
	traceDir := fs.String("traces", "traces", "durable trace store directory (default <data>/traces when -data is set)")
	maxBody := fs.String("max-body", "1MB", "JSON request body cap (413 beyond it)")
	maxTrace := fs.String("max-trace", "256MB", "trace upload body cap (413 beyond it)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	logFormat := fs.String("log-format", "text", "log encoding: text or json")
	slowReq := fs.Duration("slow-request", time.Second, "promote slower requests to WARN in the access log (also pins their traces)")
	traceBuf := fs.Int("trace-buffer", 0, "execution traces retained for /debug/traces (0: default 256)")
	keepAlive := fs.Duration("keepalive", 15*time.Second, "idle keepalive interval on the stream and event feeds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	maxBodyBytes, err := units.ParseBytes(*maxBody)
	if err != nil {
		return fmt.Errorf("bad -max-body: %w", err)
	}
	maxTraceBytes, err := units.ParseBytes(*maxTrace)
	if err != nil {
		return fmt.Errorf("bad -max-trace: %w", err)
	}
	logger, err := obs.NewLogger(stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	opt := service.Options{
		Workers:       *workers,
		QueueDepth:    *depth,
		CacheSize:     *cacheSize,
		TraceDir:      *traceDir,
		DataDir:       *dataDir,
		JobTimeout:    *jobTimeout,
		MaxBodyBytes:  int64(maxBodyBytes),
		MaxTraceBytes: int64(maxTraceBytes),
		Logger:        logger,
		SlowRequest:   *slowReq,
		TraceBuffer:   *traceBuf,
		KeepAlive:     *keepAlive,
	}
	var srv *service.Server
	if *dataDir == "" {
		srv = service.NewServer(opt)
	} else {
		// An explicit -traces wins; otherwise the trace store moves
		// under the data directory so one path carries all state.
		explicitTraces := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "traces" {
				explicitTraces = true
			}
		})
		if !explicitTraces {
			opt.TraceDir = ""
		}
		var rec service.RecoveryStats
		srv, rec, err = service.NewDurableServer(opt)
		if err != nil {
			return fmt.Errorf("open data directory %s: %w", *dataDir, err)
		}
		logger.Info("recovered state",
			"dir", *dataDir, "results_stored", rec.Results,
			"restored", rec.Restored, "requeued", rec.Requeued)
		if rec.RequeueFailed > 0 {
			logger.Warn("recovered jobs exceed the queue; they stay journaled for the next start",
				"requeue_failed", rec.RequeueFailed)
		}
		if rec.TornBytes > 0 {
			logger.Warn("quarantined a torn journal tail at boot", "torn_journal_bytes", rec.TornBytes)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	logger.Info("serving", "url", fmt.Sprintf("http://%s", ln.Addr()))

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain connections: %w", err)
	}
	// Snapshot what is still in flight, drain, then report how each of
	// those jobs actually ended: the drain budget lets running work
	// finish, so many of them complete normally. The ones cut short
	// are journaled with -data (they re-run on the next start) and
	// simply lost without it.
	abandoned := srv.Unfinished()
	closeErr := srv.Close(shutdownCtx)
	for _, was := range abandoned {
		info, ok := srv.JobInfo(was.ID)
		if ok && info.State == service.JobDone {
			logger.Info("job finished during the drain", "job", info.ID, "kind", info.Kind)
			continue
		}
		fate := "lost (no -data directory)"
		if *dataDir != "" {
			fate = "journaled; it re-runs on the next start"
		}
		logger.Warn("job interrupted by shutdown", "job", was.ID, "kind", was.Kind, "fate", fate)
	}
	if closeErr != nil {
		return fmt.Errorf("drain job queue: %w", closeErr)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("bye")
	return nil
}
