package jobs

import (
	"sync"
	"time"
)

// Lifecycle event stream: every FSM transition publishes an Event into a
// bounded ring. Subscribers get a replay of buffered events past a
// sequence number plus a live channel; a slow subscriber never blocks the
// manager — events that don't fit its channel buffer are dropped and
// counted, and the subscriber can recover them by reconnecting with
// `since` set to the last sequence it saw (the NDJSON wire contract in
// internal/server is built on exactly that).
const (
	// EventsSchema names the lifecycle-event wire format (the NDJSON
	// stream header in internal/server carries it, like the trace schema).
	EventsSchema = "tangled-job-events"
	// EventsSchemaVersion is the current event format version.
	EventsSchemaVersion = 1
)

// Event types.
const (
	EventSubmitted = "submitted"
	EventStarted   = "started"
	EventCompleted = "completed"
	EventFailed    = "failed"
	EventCanceled  = "canceled"
	// EventResumed marks a queued job re-admitted from the WAL after a
	// restart (it will still produce started/terminal events as it runs).
	EventResumed = "resumed"
)

// Event is one lifecycle transition.
type Event struct {
	// Seq is the monotonically increasing event number (from 1); it is
	// the `since` replay cursor.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	// Type is the transition: submitted/started/completed/failed/canceled/resumed.
	Type string `json:"type"`
	// Job and Tenant identify the subject.
	Job    string `json:"job"`
	Tenant string `json:"tenant,omitempty"`
	// State is the FSM state after the transition; Reason explains
	// failed/canceled.
	State  State  `json:"state"`
	Reason string `json:"reason,omitempty"`
}

func eventTypeFor(st State) string {
	switch st {
	case StateCompleted:
		return EventCompleted
	case StateFailed:
		return EventFailed
	case StateCanceled:
		return EventCanceled
	default:
		return string(st)
	}
}

// subChanBuf is each subscriber's channel buffer; beyond it live events
// are dropped (recoverable via since-replay).
const subChanBuf = 256

// eventBuf bounds the lifecycle-event replay ring.
const eventBuf = 1024

type eventRing struct {
	mu     sync.Mutex
	buf    []Event // ring storage, len == cap once full
	cap    int
	seq    uint64
	subs   map[int]chan Event
	nextID int
	closed bool
	obs    *Obs
}

func newEventRing(capacity int, o *Obs) *eventRing {
	return &eventRing{cap: capacity, subs: make(map[int]chan Event), obs: o}
}

// publish stamps Seq/Time, buffers, and fans out without blocking.
func (r *eventRing) publish(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.seq++
	ev.Seq = r.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, ev)
	} else {
		copy(r.buf, r.buf[1:])
		r.buf[len(r.buf)-1] = ev
	}
	for _, ch := range r.subs {
		select {
		case ch <- ev:
		default:
			r.obs.incEventsDropped()
		}
	}
}

// subscribe returns buffered events with Seq > since, a live channel for
// later ones, and a cancel func. Replay and registration happen under one
// lock acquisition, so no event can fall between the replay slice and the
// channel. The channel closes on cancel or ring close.
func (r *eventRing) subscribe(since uint64) ([]Event, <-chan Event, func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var replay []Event
	for _, ev := range r.buf {
		if ev.Seq > since {
			replay = append(replay, ev)
		}
	}
	ch := make(chan Event, subChanBuf)
	if r.closed {
		close(ch)
		return replay, ch, func() {}
	}
	id := r.nextID
	r.nextID++
	r.subs[id] = ch
	r.obs.setSubscribers(int64(len(r.subs)))
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if _, ok := r.subs[id]; ok {
				delete(r.subs, id)
				close(ch)
				r.obs.setSubscribers(int64(len(r.subs)))
			}
		})
	}
	return replay, ch, cancel
}

// close ends the stream: all subscriber channels are closed and further
// publishes are dropped.
func (r *eventRing) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id, ch := range r.subs {
		delete(r.subs, id)
		close(ch)
	}
	r.obs.setSubscribers(0)
}
