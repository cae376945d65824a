// Package events is an in-process publish/subscribe bus for live job
// telemetry: the service publishes job state transitions and per-point
// campaign progress, and any number of SSE watchers subscribe to one
// job without re-running it. Delivery is best-effort by design — each
// subscriber owns a bounded queue, and a subscriber that cannot keep
// up has its progress events coalesced and its oldest droppable events
// discarded rather than ever blocking the publisher (a worker goroutine
// mid-campaign must never wait on a slow network reader).
package events

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Type classifies one event.
type Type string

// Event types.
const (
	// TypeState is a job lifecycle transition (queued, running, done,
	// failed). Terminal transitions carry Final=true.
	TypeState Type = "state"
	// TypePoint is one campaign point completed (or failed), keyed by
	// its content address.
	TypePoint Type = "point"
	// TypeProgress is a coarse done/total tick. Progress events are the
	// first to be coalesced under backpressure.
	TypeProgress Type = "progress"
)

// Event is one published occurrence on a job's feed.
type Event struct {
	Seq   uint64    `json:"seq"`
	Time  time.Time `json:"time"`
	Job   string    `json:"job"`
	Type  Type      `json:"type"`
	State string    `json:"state,omitempty"`
	Done  int       `json:"done,omitempty"`
	Total int       `json:"total,omitempty"`
	// Point is the completed point's content-address key.
	Point    string `json:"point,omitempty"`
	Workload string `json:"workload,omitempty"`
	Cached   bool   `json:"cached,omitempty"`
	Error    string `json:"error,omitempty"`
	// Final marks the last event a feed will ever carry: the job
	// reached a terminal state.
	Final bool `json:"final,omitempty"`
}

// DefaultQueue is the per-subscriber queue bound when Subscribe gets
// max <= 0.
const DefaultQueue = 256

// Bus fans events out to per-job subscriber lists.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topic // guarded by mu

	published atomic.Int64
	dropped   atomic.Int64
}

// topic is one job's subscriber list and sequence counter.
type topic struct {
	seq  uint64
	subs []*Subscription
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{topics: make(map[string]*topic)}
}

// Subscribe opens a feed on one job with a bounded queue (max <= 0:
// DefaultQueue). Close the subscription to free its slot.
func (b *Bus) Subscribe(job string, max int) *Subscription {
	if max <= 0 {
		max = DefaultQueue
	}
	s := &Subscription{bus: b, job: job, max: max, notify: make(chan struct{}, 1)}
	b.mu.Lock()
	t := b.topics[job]
	if t == nil {
		t = &topic{}
		b.topics[job] = t
	}
	t.subs = append(t.subs, s)
	b.mu.Unlock()
	return s
}

// Publish delivers an event to every subscriber of its job. It never
// blocks: full subscriber queues coalesce or drop instead. Events
// published to a job nobody watches are counted and discarded.
func (b *Bus) Publish(ev Event) {
	b.published.Add(1)
	ev.Time = time.Now()
	b.mu.Lock()
	t := b.topics[ev.Job]
	if t == nil {
		b.mu.Unlock()
		return
	}
	t.seq++
	ev.Seq = t.seq
	subs := append([]*Subscription(nil), t.subs...)
	b.mu.Unlock()
	for _, s := range subs {
		s.push(ev)
	}
}

// SubscriberCount reports how many subscriptions a job currently has.
func (b *Bus) SubscriberCount(job string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[job]
	if t == nil {
		return 0
	}
	return len(t.subs)
}

// Stats returns (published, dropped, subscribers).
func (b *Bus) Stats() (published, dropped int64, subscribers int) {
	b.mu.Lock()
	for _, t := range b.topics {
		subscribers += len(t.subs)
	}
	b.mu.Unlock()
	return b.published.Load(), b.dropped.Load(), subscribers
}

// Register publishes the bus's delivery counters and live subscription
// count on r.
func (b *Bus) Register(r *obs.Registry) {
	r.CounterFunc("simd_events_published_total", "Events published on the live job feed.",
		func() float64 { return float64(b.published.Load()) })
	r.CounterFunc("simd_events_dropped_total", "Events coalesced or dropped by the slow-subscriber policy.",
		func() float64 { return float64(b.dropped.Load()) })
	r.GaugeFunc("simd_event_subscribers", "Live event-feed subscriptions.",
		func() float64 { _, _, n := b.Stats(); return float64(n) })
}

// unsubscribe removes one subscription, dropping the topic when it was
// the last watcher.
func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topics[s.job]
	if t == nil {
		return
	}
	for i, cand := range t.subs {
		if cand == s {
			t.subs = append(t.subs[:i], t.subs[i+1:]...)
			break
		}
	}
	if len(t.subs) == 0 {
		delete(b.topics, s.job)
	}
}

// Subscription is one subscriber's bounded feed. Consume with Next;
// block on Ready between drains.
type Subscription struct {
	bus    *Bus
	job    string
	max    int
	notify chan struct{}

	mu      sync.Mutex
	queue   []Event // pending events, oldest first; guarded by mu
	dropped int     // events this subscriber lost; guarded by mu
	closed  bool    // guarded by mu
}

// push enqueues one event, applying the slow-subscriber policy when
// the queue is full: an incoming progress event coalesces into the
// newest pending progress event; otherwise the oldest progress (then
// point) event is evicted. If only state events remain queued, an
// incoming progress/point event is dropped outright — lifecycle
// transitions always survive and always find room.
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if len(s.queue) >= s.max {
		if ev.Type == TypeProgress {
			for i := len(s.queue) - 1; i >= 0; i-- {
				if s.queue[i].Type == TypeProgress {
					s.queue[i] = ev
					s.dropped++
					s.bus.dropped.Add(1)
					s.notifyLocked()
					return
				}
			}
		}
		if !s.evictLocked(TypeProgress) && !s.evictLocked(TypePoint) {
			if ev.Type != TypeState {
				s.dropped++
				s.bus.dropped.Add(1)
				return
			}
			// A state event outranks whatever is oldest.
			s.queue = s.queue[1:]
			s.dropped++
			s.bus.dropped.Add(1)
		}
	}
	s.queue = append(s.queue, ev)
	s.notifyLocked()
}

// evictLocked drops the oldest queued event of one type, reporting
// whether it made room. Callers hold s.mu.
func (s *Subscription) evictLocked(t Type) bool {
	for i, q := range s.queue {
		if q.Type == t {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.dropped++
			s.bus.dropped.Add(1)
			return true
		}
	}
	return false
}

// notifyLocked pulses the readiness channel. Callers hold s.mu.
func (s *Subscription) notifyLocked() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next pops the oldest pending event, reporting false when the queue
// is empty.
func (s *Subscription) Next() (Event, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return Event{}, false
	}
	ev := s.queue[0]
	s.queue = s.queue[1:]
	return ev, true
}

// Ready pulses when new events may be pending; drain with Next until
// it reports false, then block on Ready again.
func (s *Subscription) Ready() <-chan struct{} { return s.notify }

// Dropped reports how many events this subscriber lost to the
// slow-subscriber policy (coalesced or evicted).
func (s *Subscription) Dropped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close frees the subscriber slot. Pending events are discarded;
// further pushes are no-ops.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.queue = nil
	s.mu.Unlock()
	s.bus.unsubscribe(s)
}
