package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/faultfs"
	"repro/internal/journal"
)

// This file is the crash-safety boot path. A durable server keeps two
// stores under its data directory:
//
//	<data>/journal.log   — CRC-framed job journal (accepted/terminal)
//	<data>/results/      — one content-addressed file per result
//
// NewDurableServer reads only the journal. The result store becomes
// the second tier behind every cache: a memory miss reads the one file
// it names before computing, so a restarted service answers repeat
// queries without recomputing, and boot costs O(journal), not
// O(results ever computed). Journal entries with no terminal record
// are re-enqueued under their original job IDs. Re-execution is
// idempotent — every job is content-addressed, so a re-run of work
// that actually finished reads its results back from disk.

// RecoveryStats summarizes what boot replay restored; cmd/simd logs
// it and /metrics exposes the counts.
type RecoveryStats struct {
	// Results is how many result files the store holds, counted at
	// open without reading one: each file is checked when first read.
	Results int
	// JournalEntries is the live entry count after compaction;
	// TornBytes how many torn-tail bytes Open quarantined.
	JournalEntries int64
	TornBytes      int64
	// Restored counts finished jobs answerable again via
	// /v1/jobs/{id}; Requeued counts interrupted jobs re-enqueued;
	// RequeueFailed counts jobs that did not fit the queue (they stay
	// journaled and are retried next boot).
	Restored      int
	Requeued      int
	RequeueFailed int
}

// NewDurableServer builds a server whose job journal and result store
// live under opt.DataDir, replaying the journal before it serves
// traffic.
// TraceDir defaults to <DataDir>/traces so one directory carries the
// full service state.
func NewDurableServer(opt Options) (*Server, RecoveryStats, error) {
	var rec RecoveryStats
	if opt.DataDir == "" {
		return nil, rec, errors.New("service: durable server needs a data directory")
	}
	if opt.TraceDir == "" {
		opt.TraceDir = filepath.Join(opt.DataDir, "traces")
	}
	fsys := opt.DataFS
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	s := NewServer(opt)

	results, err := journal.OpenResultsFS(fsys, filepath.Join(opt.DataDir, "results"))
	if err != nil {
		return nil, rec, err
	}
	jnl, entries, err := journal.OpenFS(fsys, opt.DataDir)
	if err != nil {
		return nil, rec, err
	}

	// Fold the journal into one final state per job. Entries are
	// mostly in append order, but a terminal record CAN precede its
	// accepted record (the job raced to completion while the handler
	// was still journaling), so terminal always wins regardless of
	// position.
	type jobRecord struct {
		accepted *journal.Entry
		terminal *journal.Entry
	}
	byJob := make(map[string]*jobRecord)
	var order []string
	for i := range entries {
		e := &entries[i]
		jr, ok := byJob[e.Job]
		if !ok {
			jr = &jobRecord{}
			byJob[e.Job] = jr
			order = append(order, e.Job)
		}
		switch e.State {
		case journal.StateAccepted:
			if jr.accepted == nil {
				jr.accepted = e
			}
		case journal.StateDone, journal.StateFailed:
			jr.terminal = e
		case journal.StateInterrupted:
			// Informational: the accepted record carries the spec the
			// re-enqueue needs.
		}
	}

	// Compact before re-enqueueing anything: the journal shrinks to
	// one terminal record per finished job plus the accepted records
	// still owed an execution, bounding growth across restarts.
	var keep []journal.Entry
	for _, id := range order {
		jr := byJob[id]
		switch {
		case jr.terminal != nil:
			keep = append(keep, *jr.terminal)
		case jr.accepted != nil:
			keep = append(keep, *jr.accepted)
		}
	}
	if err := jnl.Compact(keep); err != nil {
		jnl.Close()
		return nil, rec, err
	}
	s.journal = jnl
	s.points.attach(results, &s.persistErrs)
	s.campaigns.attach(results, &s.persistErrs)
	s.advices.attach(results, &s.persistErrs)
	s.clusters.attach(results, &s.persistErrs)
	s.replays.attach(results, &s.persistErrs)
	s.registerDurable(&rec, results)

	for _, id := range order {
		jr := byJob[id]
		if jr.terminal != nil {
			s.restoreFinished(jr.terminal)
			rec.Restored++
			continue
		}
		if jr.accepted == nil {
			continue // interrupted-only record; nothing replayable
		}
		var spec campaign.Spec
		if err := json.Unmarshal(jr.accepted.Spec, &spec); err != nil {
			// A spec that no longer decodes cannot be re-run; close it
			// out so it stops haunting every boot.
			s.journalAppend(journal.Entry{
				State: journal.StateFailed, Job: id, Kind: jr.accepted.Kind, Key: jr.accepted.Key,
				Error: fmt.Sprintf("unreplayable journaled spec: %v", err),
			})
			continue
		}
		_, err := s.queue.SubmitJob(jr.accepted.Kind,
			JobOptions{ID: id, Timeout: s.jobTimeout, RequestID: jr.accepted.Req},
			s.campaignJob(id, jr.accepted.Key, jr.accepted.Req, spec))
		if err != nil {
			// A backlog wider than the queue: leave the accepted record
			// in place — the next boot retries the remainder.
			rec.RequeueFailed++
			continue
		}
		rec.Requeued++
	}
	rec.JournalEntries, rec.TornBytes = jnl.Stats()
	stored, _ := results.Stats()
	rec.Results = int(stored)
	return s, rec, nil
}

// restoreFinished registers one terminal journal record with the
// queue so GET /v1/jobs/{id} keeps answering across restarts. A
// finished campaign keeps only its result key; the job endpoints
// resolve it through the campaign cache when asked. The journal keeps
// no stage timings, so a restored job has no timeline.
func (s *Server) restoreFinished(e *journal.Entry) {
	info := JobInfo{ID: e.Job, Kind: e.Kind, Done: e.Done, Total: e.Total, Submitted: e.Time, RequestID: e.Req}
	t := e.Time
	info.Started, info.Finished = &t, &t
	var key string
	if e.State == journal.StateDone {
		info.State = JobDone
		if e.Kind == "campaign" {
			key = e.Key
		}
	} else {
		info.State = JobFailed
		info.Error = e.Error
	}
	s.queue.RestoreFinished(info, key)
}
