package telemetry

import (
	"sync"
	"time"
)

// Event is one flight-recorder entry: a timestamped, optionally
// trace-tagged structured occurrence on a process's hot path (session
// accepted, TRID bound, pool hit/miss, reserve/fallback, block parked,
// REST/resume, 4xx/5xx reply). TimeSec is seconds since the hub epoch,
// the same clock spans and live counters use.
type Event struct {
	Seq     uint64    `json:"seq"`
	Wall    time.Time `json:"wall"`
	TimeSec float64   `json:"time_sec"`
	Trace   string    `json:"trace_id,omitempty"`
	Kind    string    `json:"kind"`
	Detail  string    `json:"detail,omitempty"`
}

// ring keeps the most recent cap values: it appends until full, then
// overwrites the oldest in place, so an add never moves the others.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest once len(buf) == cap
	cap  int
}

// next returns the slot the next value goes in: a new zero one until
// the ring is full, then the oldest, whose value the caller overwrites
// (and may reuse the arrays of).
func (r *ring[T]) next() *T {
	if len(r.buf) < r.cap {
		var zero T
		r.buf = append(r.buf, zero)
		return &r.buf[len(r.buf)-1]
	}
	slot := &r.buf[r.head]
	r.head = (r.head + 1) % r.cap
	return slot
}

// oldestFirst returns a copy of the kept values that keep accepts (all
// of them when keep is nil), or nil when there is none.
func (r *ring[T]) oldestFirst(keep func(*T) bool) []T {
	var out []T
	if keep == nil && len(r.buf) > 0 {
		out = make([]T, 0, len(r.buf))
	}
	for i := range r.buf {
		if v := &r.buf[(r.head+i)%len(r.buf)]; keep == nil || keep(v) {
			out = append(out, *v)
		}
	}
	return out
}

// EventLog is the bounded flight-recorder ring. Recording is a mutex
// and one slot write — cheap enough to leave on unconditionally — and
// the ring keeps only the most recent capacity events, so a long-lived
// process's recorder is a window onto its recent past, not a log.
type EventLog struct {
	epoch time.Time

	mu   sync.Mutex
	seq  uint64
	ring ring[Event]
}

// NewEventLog creates a recorder retaining the last capacity events
// (default 1024 when capacity <= 0).
func NewEventLog(epoch time.Time, capacity int) *EventLog {
	if capacity <= 0 {
		capacity = 1024
	}
	return &EventLog{epoch: epoch, ring: ring[Event]{cap: capacity}}
}

// Add records one event. A nil log is a no-op.
func (l *EventLog) Add(trace, kind, detail string) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	*l.ring.next() = Event{
		Seq:     l.seq,
		Wall:    now,
		TimeSec: now.Sub(l.epoch).Seconds(),
		Trace:   trace,
		Kind:    kind,
		Detail:  detail,
	}
}

// Snapshot returns the recorded events, oldest first.
func (l *EventLog) Snapshot() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.oldestFirst(nil)
}

// ByTrace returns the recorded events tagged with the given trace ID,
// oldest first.
func (l *EventLog) ByTrace(trace string) []Event {
	if l == nil || trace == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.oldestFirst(func(e *Event) bool { return e.Trace == trace })
}
