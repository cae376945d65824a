package service

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/journal"
	"repro/internal/tracestore"
)

// This file declares the families the server itself writes or owns.
// Everything else on /metrics registers where it lives: each Cache in
// NewCache, the queue in NewQueue, the event bus and the tracer through
// Register, and the Go runtime through obs.RegisterRuntime.

// registerServer registers the build, uptime and request-path
// families.
func (s *Server) registerServer() {
	start := time.Now()
	s.reg.GaugeFunc("simd_build_info", "Build metadata; the value is always 1.",
		func() float64 { return 1 }, "go_version", runtime.Version(), "revision", buildRevision())
	s.reg.GaugeFunc("simd_uptime_seconds", "Time since the service started.",
		func() float64 { return time.Since(start).Seconds() })
	s.httpSeconds = s.reg.Histogram("simd_http_request_seconds",
		"HTTP request latency by route and status code.", []string{"route", "code"}, nil)
	s.pointSeconds = s.reg.Histogram("simd_point_compute_seconds",
		"Single-point compute latency by fidelity (cache misses only).", []string{"fidelity"}, nil)
	s.lookupSeconds = s.reg.Histogram("simd_cache_lookup_seconds",
		"Content-addressed cache hit latency by cache.", []string{"cache"}, nil)
	s.reg.CounterFunc("simd_panics_total", "Handler panics recovered by the middleware.", count(&s.panics))
}

// buildRevision digs the VCS revision out of the build info, so one
// scrape identifies the running binary.
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// count reads an atomic counter as a sample value.
func count(n *atomic.Int64) func() float64 {
	return func() float64 { return float64(n.Load()) }
}

// registerTraceStore registers the trace store's gauges once it is
// open.
func (s *Server) registerTraceStore(st *tracestore.Store) {
	s.reg.GaugeFunc("simd_traces_stored", "Traces resident in the durable store.",
		func() float64 { n, _ := st.Totals(); return float64(n) })
	s.reg.GaugeFunc("simd_trace_store_bytes", "Encoded bytes in the trace store.",
		func() float64 { _, b := st.Totals(); return float64(b) })
	s.reg.GaugeFunc("simd_traces_quarantined", "Damaged trace files moved aside when the store opened.",
		func() float64 { return float64(st.Quarantined()) })
}

// registerDurable registers the crash-safety families, which exist
// only on a durable server once its journal and result store are
// attached; rec is the boot replay's record, final before the server
// serves a scrape.
func (s *Server) registerDurable(rec *RecoveryStats, results *journal.Results) {
	s.reg.GaugeFunc("simd_journal_entries", "Live entries in the job journal.",
		func() float64 { n, _ := s.journal.Stats(); return float64(n) })
	s.reg.GaugeFunc("simd_journal_quarantined_bytes", "Torn-tail bytes quarantined at boot.",
		func() float64 { _, torn := s.journal.Stats(); return float64(torn) })
	s.reg.CounterFunc("simd_journal_errors_total", "Journal appends that failed (non-fatal).", count(&s.journalErrs))
	for _, r := range []struct {
		state string
		n     *int
	}{{"requeued", &rec.Requeued}, {"restored", &rec.Restored}} {
		s.reg.CounterFunc("simd_jobs_recovered_total", "Jobs recovered by boot replay.",
			func() float64 { return float64(*r.n) }, "state", r.state)
	}
	s.reg.GaugeFunc("simd_results_stored", "Durable results resident on disk.",
		func() float64 { n, _ := results.Stats(); return float64(n) })
	s.reg.GaugeFunc("simd_results_quarantined", "Corrupt result files moved aside when read.",
		func() float64 { _, q := results.Stats(); return float64(q) })
	s.reg.CounterFunc("simd_result_persist_errors_total", "Result persists that failed (non-fatal).", count(&s.persistErrs))
}
