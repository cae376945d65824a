package service

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQueueRunsJobs(t *testing.T) {
	q := NewQueue(2, 8, 0, obs.NewRegistry())
	defer q.Close(context.Background())

	var ran atomic.Int64
	info, err := q.Submit("run", func(context.Context, func(int, int)) error {
		ran.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := q.Wait(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobDone || ran.Load() != 1 {
		t.Fatalf("state=%s ran=%d", final.State, ran.Load())
	}
	if final.Done != 1 || final.Total != 1 {
		t.Fatalf("default progress = %d/%d, want 1/1", final.Done, final.Total)
	}
	if final.Started == nil || final.Finished == nil {
		t.Fatal("finished job missing timestamps")
	}
	if final.Started.Before(final.Submitted) || final.Finished.Before(*final.Started) {
		t.Fatal("timestamps out of order")
	}
}

// TestQueuedJobOmitsZeroTimestamps pins the wire format: a job that
// has not started must not serialize "started"/"finished" at all —
// time.Time is a struct, so the value form of omitempty never fires
// and queued jobs used to leak "0001-01-01T00:00:00Z".
func TestQueuedJobOmitsZeroTimestamps(t *testing.T) {
	q := NewQueue(1, 8, 0, obs.NewRegistry())
	defer q.Close(context.Background())

	block := make(chan struct{})
	defer close(block)
	busy, err := q.Submit("run", func(context.Context, func(int, int)) error {
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked the blocker up, so the next job is
	// guaranteed to snapshot in the queued state.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if info, _ := q.Get(busy.ID); info.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := q.Submit("run", func(context.Context, func(int, int)) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(queued)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{`"started"`, `"finished"`, "0001-01-01"} {
		if strings.Contains(string(buf), banned) {
			t.Errorf("queued job JSON contains %s: %s", banned, buf)
		}
	}
	if !strings.Contains(string(buf), `"submitted"`) {
		t.Errorf("queued job JSON missing submitted: %s", buf)
	}
}

func TestQueueFailureState(t *testing.T) {
	q := NewQueue(1, 8, 0, obs.NewRegistry())
	defer q.Close(context.Background())

	info, err := q.Submit("run", func(context.Context, func(int, int)) error {
		return errors.New("deliberate")
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := q.Wait(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != JobFailed || final.Error != "deliberate" {
		t.Fatalf("state=%s err=%q", final.State, final.Error)
	}
	_, _, _, failed := q.Counts()
	if failed != 1 {
		t.Fatalf("failed count = %d", failed)
	}
}

func TestQueueBoundedRejects(t *testing.T) {
	q := NewQueue(1, 1, 0, obs.NewRegistry())
	defer q.Close(context.Background())

	block := make(chan struct{})
	// One running + one pending fills the queue of depth 1.
	first, err := q.Submit("run", func(context.Context, func(int, int)) error {
		<-block
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the first job is actually running so the next Submit
	// occupies the single pending slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		info, _ := q.Get(first.ID)
		if info.State == JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := q.Submit("run", func(context.Context, func(int, int)) error { <-block; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit("run", func(context.Context, func(int, int)) error { return nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overfull submit err = %v, want ErrQueueFull", err)
	}
	close(block)
}

func TestQueueProgressAndGet(t *testing.T) {
	q := NewQueue(1, 8, 0, obs.NewRegistry())
	defer q.Close(context.Background())

	step := make(chan struct{})
	info, err := q.Submit("campaign", func(_ context.Context, progress func(int, int)) error {
		progress(3, 10)
		step <- struct{}{}
		<-step
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-step
	snap, ok := q.Get(info.ID)
	if !ok || snap.Done != 3 || snap.Total != 10 || snap.State != JobRunning {
		t.Fatalf("snapshot %+v", snap)
	}
	step <- struct{}{}
	if _, err := q.Wait(context.Background(), info.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Get("nope"); ok {
		t.Fatal("Get on unknown id succeeded")
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := NewQueue(2, 16, 0, obs.NewRegistry())
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := q.Submit("run", func(context.Context, func(int, int)) error {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 8 {
		t.Fatalf("drained %d jobs, want 8", ran.Load())
	}
	if _, err := q.Submit("run", func(context.Context, func(int, int)) error { return nil }); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after close err = %v", err)
	}
}

// TestQueuePruneRetentionMixedStates pins the retention pruning
// invariant: when the oldest retained entry is still running, pruning
// stops (nothing newer is dropped either), and `order` and `jobs`
// stay exactly consistent throughout — every id in jobs appears in
// order and vice versa.
func TestQueuePruneRetentionMixedStates(t *testing.T) {
	q := NewQueue(1, 16, 3, obs.NewRegistry()) // retain at most 3 finished jobs
	defer q.Close(context.Background())

	checkConsistent := func(when string) {
		t.Helper()
		q.mu.Lock()
		defer q.mu.Unlock()
		if len(q.order) != len(q.jobs) {
			t.Fatalf("%s: order has %d ids, jobs map %d", when, len(q.order), len(q.jobs))
		}
		seen := make(map[string]bool, len(q.order))
		for _, id := range q.order {
			if seen[id] {
				t.Fatalf("%s: id %s appears twice in order", when, id)
			}
			seen[id] = true
			if _, ok := q.jobs[id]; !ok {
				t.Fatalf("%s: order holds %s but jobs map does not", when, id)
			}
		}
	}

	// Oldest job: runs until released (single worker, so everything
	// submitted after it queues behind it and stays unfinished too).
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := q.Submit("campaign", func(context.Context, func(int, int)) error {
		close(started)
		<-release
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// Pile up submissions well past the retention cap. The oldest
	// entry (the running blocker) must pin the whole history: nothing
	// may be pruned while it lives.
	var ids []string
	for i := 0; i < 8; i++ {
		info, err := q.Submit("run", func(context.Context, func(int, int)) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		checkConsistent("while blocked")
	}
	if _, ok := q.Get(blocker.ID); !ok {
		t.Fatal("running blocker was pruned")
	}
	for _, id := range ids {
		if _, ok := q.Get(id); !ok {
			t.Fatalf("job %s pruned while the oldest entry was still running", id)
		}
	}

	// Let everything finish, then trigger pruning with one more
	// submission: retention must now drop the oldest finished jobs.
	close(release)
	for _, id := range append([]string{blocker.ID}, ids...) {
		if _, err := q.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	last, err := q.Submit("run", func(context.Context, func(int, int)) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(context.Background(), last.ID); err != nil {
		t.Fatal(err)
	}
	checkConsistent("after release")
	q.mu.Lock()
	retained := len(q.jobs)
	q.mu.Unlock()
	if retained > 3+1 { // cap, +1 for the submission that triggered pruning
		t.Fatalf("retained %d jobs, want <= 4", retained)
	}
	// The oldest (blocker) must be gone, the newest present.
	if _, ok := q.Get(blocker.ID); ok {
		t.Fatal("finished blocker survived pruning past the cap")
	}
	if _, ok := q.Get(last.ID); !ok {
		t.Fatal("newest job was pruned")
	}
	checkConsistent("final")
}

// TestQueueResultPrunedWithRecord: a campaign result lives on its job
// record, so retention drops the two together — with retain=2, the
// third finished job pushes the first job and its result out.
func TestQueueResultPrunedWithRecord(t *testing.T) {
	q := NewQueue(1, 8, 2, obs.NewRegistry())
	defer q.Close(context.Background())

	ids := []string{"j000001", "j000002", "j000003"}
	for i, id := range ids {
		_, err := q.SubmitJob("campaign", JobOptions{ID: id}, func(context.Context, func(int, int)) error {
			q.SetResult(id, &CampaignResult{Name: id})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		if res, _ := q.Result(id); res == nil || res.Name != id {
			t.Fatalf("job %s result = %+v, want its own", id, res)
		}
		if res, _ := q.Result(ids[0]); i == 1 && res == nil {
			t.Fatal("first result gone before the retention cap was passed")
		}
	}
	if res, _ := q.Result(ids[0]); res != nil {
		t.Fatalf("first job's result survived pruning: %+v", res)
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("first job record survived pruning")
	}
}

// TestFinishedJobDropsWork: a finished job keeps its record and
// result, but not its work — the function, the request context and
// the request's trace — done or failed alike.
func TestFinishedJobDropsWork(t *testing.T) {
	q := NewQueue(1, 4, 0, obs.NewRegistry())
	defer q.Close(context.Background())
	for _, fail := range []bool{false, true} {
		tr, _ := obs.NewTrace("drop-work")
		info, err := q.SubmitJob("campaign", JobOptions{Base: context.Background(), Trace: tr},
			func(context.Context, func(int, int)) error {
				if fail {
					return errors.New("boom")
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := q.Wait(context.Background(), info.ID); err != nil {
			t.Fatal(err)
		}
		j := q.lookup(info.ID)
		if j.fn != nil || j.base != nil || j.trace != nil {
			t.Fatalf("finished job (failed=%t) still holds fn=%t base=%t trace=%t",
				fail, j.fn != nil, j.base != nil, j.trace != nil)
		}
	}
}

// Submit is SubmitJob with default options.
func (q *Queue) Submit(kind string, fn JobFunc) (JobInfo, error) {
	return q.SubmitJob(kind, JobOptions{}, fn)
}

// Counts returns (queued, running, completed, failed).
func (q *Queue) Counts() (queued int, running, completed, failed int64) {
	return len(q.pending), q.running.Load(), q.completed.Load(), q.failed.Load()
}
