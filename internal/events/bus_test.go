package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPublishFansOutToEverySubscriber(t *testing.T) {
	b := NewBus()
	a := b.Subscribe("j1", 0)
	c := b.Subscribe("j1", 0)
	defer a.Close()
	defer c.Close()

	b.Publish(Event{Job: "j1", Type: TypeState, State: "running"})
	b.Publish(Event{Job: "j1", Type: TypePoint, Point: "k1"})

	for name, sub := range map[string]*Subscription{"a": a, "c": c} {
		ev1, ok := sub.Next()
		if !ok || ev1.Type != TypeState || ev1.State != "running" {
			t.Fatalf("%s: first event = %+v/%v, want the state event", name, ev1, ok)
		}
		if ev1.Seq != 1 {
			t.Errorf("%s: first seq = %d, want 1", name, ev1.Seq)
		}
		if ev1.Time.IsZero() {
			t.Errorf("%s: event time not stamped", name)
		}
		ev2, ok := sub.Next()
		if !ok || ev2.Type != TypePoint || ev2.Point != "k1" {
			t.Fatalf("%s: second event = %+v/%v, want the point event", name, ev2, ok)
		}
		if _, ok := sub.Next(); ok {
			t.Fatalf("%s: queue should be drained", name)
		}
	}
}

func TestPublishToUnwatchedJobDiscards(t *testing.T) {
	b := NewBus()
	b.Publish(Event{Job: "nobody", Type: TypeState, State: "done"})
	published, dropped, subs := b.Stats()
	if published != 1 || subs != 0 {
		t.Fatalf("stats = (%d, %d, %d), want 1 published, 0 subscribers", published, dropped, subs)
	}
	// Subscribing later must not resurrect the discarded event.
	s := b.Subscribe("nobody", 0)
	defer s.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("late subscriber received an event published before it existed")
	}
}

func TestCloseFreesSubscriberSlot(t *testing.T) {
	b := NewBus()
	s1 := b.Subscribe("j1", 0)
	s2 := b.Subscribe("j1", 0)
	if got := liveSubs(b); got != 2 {
		t.Fatalf("subscriber count = %d, want 2", got)
	}
	s1.Close()
	if got := liveSubs(b); got != 1 {
		t.Fatalf("after one close count = %d, want 1", got)
	}
	s1.Close() // idempotent
	if got := liveSubs(b); got != 1 {
		t.Fatalf("double close changed the count to %d", got)
	}
	b.Publish(Event{Job: "j1", Type: TypeState, State: "running"})
	if _, ok := s1.Next(); ok {
		t.Fatal("closed subscription received an event")
	}
	if _, ok := s2.Next(); !ok {
		t.Fatal("surviving subscription missed the event")
	}
	s2.Close()
	if got := liveSubs(b); got != 0 {
		t.Fatalf("after both close count = %d, want 0", got)
	}
}

func TestSlowSubscriberCoalescesProgress(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("j1", 4)
	defer s.Close()

	b.Publish(Event{Job: "j1", Type: TypeState, State: "running"})
	for i := 1; i <= 10; i++ {
		b.Publish(Event{Job: "j1", Type: TypeProgress, Done: i, Total: 10})
	}

	var got []Event
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if len(got) != 4 {
		t.Fatalf("drained %d events, want the queue bound 4", len(got))
	}
	if got[0].Type != TypeState {
		t.Fatalf("first drained event = %+v, want the state event to survive", got[0])
	}
	last := got[len(got)-1]
	if last.Type != TypeProgress || last.Done != 10 {
		t.Fatalf("newest progress = %+v, want the final done=10 tick (coalesced)", last)
	}
	if dropped(b) != 7 {
		t.Errorf("dropped = %d, want 7 coalesced ticks", dropped(b))
	}
}

func TestStateOutranksOldestWhenFull(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("j1", 2)
	defer s.Close()

	b.Publish(Event{Job: "j1", Type: TypeState, State: "queued"})
	b.Publish(Event{Job: "j1", Type: TypeState, State: "running"})
	// Queue full of states: an incoming point is dropped outright...
	b.Publish(Event{Job: "j1", Type: TypePoint, Point: "k1"})
	// ...but a terminal state evicts the oldest entry.
	b.Publish(Event{Job: "j1", Type: TypeState, State: "done", Final: true})

	ev1, _ := s.Next()
	ev2, _ := s.Next()
	if ev1.State != "running" || ev2.State != "done" {
		t.Fatalf("drained %q then %q, want running then done", ev1.State, ev2.State)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("dropped point event reappeared")
	}
	if dropped(b) != 2 {
		t.Errorf("dropped = %d, want 2 (point + evicted queued state)", dropped(b))
	}
}

// TestConcurrentSubscribersUnderRace exercises the bus the way the
// service does — one publisher goroutine per job event source, many
// subscribers attaching, draining and detaching concurrently — and is
// meaningful mainly under -race.
func TestConcurrentSubscribersUnderRace(t *testing.T) {
	b := NewBus()
	const subscribers = 8
	const events = 200

	var wg sync.WaitGroup
	for i := 0; i < subscribers; i++ {
		// Subscribe before publishing starts so every goroutine is
		// guaranteed to see the final event.
		s := b.Subscribe("j1", 16)
		wg.Add(1)
		go func(i int, s *Subscription) {
			defer wg.Done()
			defer s.Close()
			deadline := time.After(5 * time.Second)
			for {
				ev, ok := s.Next()
				if !ok {
					select {
					case <-s.Ready():
						continue
					case <-deadline:
						t.Errorf("subscriber %d: no final event within deadline", i)
						return
					}
				}
				if ev.Final {
					return
				}
			}
		}(i, s)
	}
	// A disconnecting subscriber churns the topic list mid-publish.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := b.Subscribe("j1", 1)
			s.Next()
			s.Close()
		}
	}()

	for i := 0; i < events; i++ {
		b.Publish(Event{Job: "j1", Type: TypeProgress, Done: i, Total: events})
	}
	b.Publish(Event{Job: "j1", Type: TypeState, State: "done", Final: true})
	wg.Wait()

	if got := liveSubs(b); got != 0 {
		t.Fatalf("subscriber count after all closed = %d, want 0", got)
	}
}

// TestSlowSubscriberNeverBlocksPublisher pins the bus's core contract:
// publishing to a subscriber that never drains completes immediately.
func TestSlowSubscriberNeverBlocksPublisher(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("j1", 2)
	defer s.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10_000; i++ {
			b.Publish(Event{Job: "j1", Type: TypeProgress, Done: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("publisher blocked on a slow subscriber")
	}
	published, dropped, _ := b.Stats()
	if published != 10_000 {
		t.Fatalf("published = %d, want 10000", published)
	}
	if dropped == 0 {
		t.Error("bus-level dropped counter should be non-zero")
	}
}

func TestSequencePerJob(t *testing.T) {
	b := NewBus()
	s1 := b.Subscribe("a", 0)
	s2 := b.Subscribe("b", 0)
	defer s1.Close()
	defer s2.Close()
	for i := 0; i < 3; i++ {
		b.Publish(Event{Job: "a", Type: TypeProgress, Done: i})
	}
	b.Publish(Event{Job: "b", Type: TypeState, State: "running"})

	for want := uint64(1); want <= 3; want++ {
		ev, ok := s1.Next()
		if !ok || ev.Seq != want {
			t.Fatalf("job a event = %+v/%v, want seq %d", ev, ok, want)
		}
	}
	ev, ok := s2.Next()
	if !ok || ev.Seq != 1 {
		t.Fatalf("job b event = %+v/%v, want its own seq 1", ev, ok)
	}
}

func TestDefaultQueueBound(t *testing.T) {
	b := NewBus()
	s := b.Subscribe("j1", 0)
	defer s.Close()
	for i := 0; i < DefaultQueue+50; i++ {
		b.Publish(Event{Job: "j1", Type: TypePoint, Point: fmt.Sprintf("k%d", i)})
	}
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			break
		}
		n++
	}
	if n != DefaultQueue {
		t.Fatalf("retained %d events, want the default bound %d", n, DefaultQueue)
	}
	if dropped(b) != 50 {
		t.Fatalf("dropped = %d, want 50", dropped(b))
	}
}

// dropped is the bus-level count /metrics exposes; every test that
// reads it has one subscriber.
func dropped(b *Bus) int64 {
	_, n, _ := b.Stats()
	return n
}

func liveSubs(b *Bus) int {
	_, _, n := b.Stats()
	return n
}
