package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/events"
)

// This file is the live side of the observability surface: the two
// feeds any number of clients use to watch one job — Server-Sent
// Events (GET /v1/jobs/{id}/events) and NDJSON snapshots (GET
// /v1/jobs/{id}/stream), both driven by the event bus — and the
// execution-trace debug endpoints (GET /debug/traces, GET
// /debug/traces/{id}).

// follow serves one job's live feed. It subscribes on the bus before
// taking the opening snapshot, so nothing published in between is
// lost; open writes that snapshot, and wake drains the subscription
// each time it signals. Either reports true once the feed has written
// its final record. keepalive is written on every tick of the
// keepalive period so proxies do not sever a quiet watch.
func (s *Server) follow(w http.ResponseWriter, r *http.Request, contentType, keepalive string,
	open func(JobInfo) bool, wake func(*events.Subscription) bool) {
	id := r.PathValue("id")
	sub := s.events.Subscribe(id, 0)
	defer sub.Close()
	info, ok := s.queue.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", id))
		return
	}
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	done := open(info)
	_ = rc.Flush()
	ticker := time.NewTicker(s.keepAlive)
	defer ticker.Stop()
	for !done {
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
			_, _ = io.WriteString(w, keepalive)
		case <-sub.Ready():
			done = wake(sub)
		}
		_ = rc.Flush()
	}
}

// handleJobEvents serves one job's live feed as Server-Sent Events: an
// opening state snapshot, then every published transition, point
// completion and progress tick, with a comment keepalive on every
// keepalive tick.
// The stream ends after the terminal (final) event. A state event may
// be delivered twice around the subscribe/snapshot boundary, which
// watchers absorb (renders are idempotent).
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	write := func(ev events.Event) bool {
		if payload, err := json.Marshal(ev); err == nil {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, payload)
		}
		return ev.Final
	}
	s.follow(w, r, "text/event-stream", ": keepalive\n\n",
		func(info JobInfo) bool {
			first := stateEvent(info)
			first.Time = time.Now()
			return write(first)
		},
		func(sub *events.Subscription) bool {
			for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
				if write(ev) {
					return true
				}
			}
			return false
		})
}

// handleJobStream streams newline-delimited JobInfo snapshots until
// the job finishes — the campaign progress feed simctl renders. Each
// bus wake-up writes the job's current snapshot if its state or
// progress changed; every keepalive tick writes a blank heartbeat
// line, which clients skip.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	enc := json.NewEncoder(w)
	var last JobInfo
	emit := func(info JobInfo) bool {
		if info.State != last.State || info.Done != last.Done || info.Total != last.Total {
			last = info
			_ = enc.Encode(info)
		}
		return info.State == JobDone || info.State == JobFailed
	}
	s.follow(w, r, "application/x-ndjson", "\n", emit,
		func(sub *events.Subscription) bool {
			for _, ok := sub.Next(); ok; _, ok = sub.Next() {
			}
			info, ok := s.queue.Get(id)
			return !ok || emit(info)
		})
}

// handleDebugTraces lists the retained execution traces, newest first.
func (s *Server) handleDebugTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.tracer.List())
}

// handleDebugTrace serves one trace's span tree by trace ID (= the
// request ID of the request that produced it).
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	data, ok := s.tracer.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no trace %q (evicted, or never sampled)", id))
		return
	}
	writeJSON(w, http.StatusOK, data)
}
