package telemetry

import (
	"slices"
	"sync"
	"time"
)

// Phase names the stages of a transfer the paper's methodology
// distinguishes: the control-channel dial, authentication, data-channel
// setup (the live analogue of VC setup delay), block streaming, and
// teardown. PhaseIdle covers control-channel gaps in session-scoped
// spans; PhaseError is the zero-length terminal phase appended when a
// span ends with an error.
type Phase string

const (
	PhaseControlDial Phase = "control_dial"
	PhaseAuth        Phase = "auth"
	PhaseSetup       Phase = "data_setup"
	PhaseStream      Phase = "stream"
	PhaseTeardown    Phase = "teardown"
	PhaseIdle        Phase = "idle"
	PhaseError       Phase = "error"
)

// PhaseSnapshot is one closed phase of a completed span.
type PhaseSnapshot struct {
	Name        Phase   `json:"name"`
	StartSec    float64 `json:"start_sec"`
	DurationSec float64 `json:"duration_sec"`
}

// SpanSnapshot is the JSON form of a completed span, served by /spans.
// StartSec is seconds since the hub epoch, the clock the live byte
// counters use, so spans convert directly into snmp.TransferObs.
//
// TraceID/SID/ParentSID link spans across processes: every span tagged
// via SetTrace carries the end-to-end trace ID, its own span ID, and
// the span ID of the remote span that caused it, which is how
// /trace/<id> stitches a multi-process tree. TimelineBytes is the
// per-transfer throughput timeline: wire bytes bucketed into
// TimelineBinMS-wide bins from span start, filled by AddBytes on the
// counting data connections.
type SpanSnapshot struct {
	ID          uint64    `json:"id"`
	Op          string    `json:"op"`
	Target      string    `json:"target,omitempty"`
	TraceID     string    `json:"trace_id,omitempty"`
	SID         string    `json:"sid,omitempty"`
	ParentSID   string    `json:"parent_sid,omitempty"`
	Start       time.Time `json:"start"`
	StartSec    float64   `json:"start_sec"`
	DurationSec float64   `json:"duration_sec"`
	Bytes       int64     `json:"bytes"`
	Streams     int       `json:"streams,omitempty"`
	Err         string    `json:"error,omitempty"`
	// ThrottleWaitSec is the cumulative time the span's data
	// connections spent stalled in a pacing limiter. It is not a phase:
	// throttle waits happen concurrently inside the stream phase across
	// parallel connections (and can sum past wall time), while phases
	// are contiguous and sum exactly to it. Variance attribution
	// (gftpanalyze -spans) carves a virtual throttle_wait phase out of
	// stream from this figure.
	ThrottleWaitSec float64         `json:"throttle_wait_sec,omitempty"`
	Phases          []PhaseSnapshot `json:"phases"`
	TimelineBinMS   int64           `json:"timeline_bin_ms,omitempty"`
	TimelineBytes   []int64         `json:"timeline_bytes,omitempty"`
}

// Timeline geometry: AddBytes buckets wire bytes into 100 ms bins from
// span start; transfers longer than timelineMaxBins bins accumulate
// their tail in the last bin rather than growing without bound.
const (
	timelineBin     = 100 * time.Millisecond
	timelineMaxBins = 4096
)

// Span is one in-flight operation. Phases are contiguous by
// construction — starting a phase closes the previous one at the same
// instant, and End closes the last — so the phase durations of a
// completed span sum exactly to its wall time. All methods are
// nil-safe and safe for concurrent use (data-path goroutines call
// AddBytes while the control path switches phases).
//
// A span belongs to its owner. Hub.Span allocates one; a transfer
// record keeps one by value and re-arms it for every transfer with
// SpanLog.Begin, reusing its arrays. End copies the span's snapshot
// into a ring slot that owns its own arrays, and every mutator is a
// no-op from then on until the next Begin. A zero Span, or one begun on
// a nil log, is inert: every method is a no-op.
type Span struct {
	log *SpanLog

	mu    sync.Mutex
	snap  SpanSnapshot
	begun time.Time // when the open phase started
	live  bool      // begun and not yet ended

	// Inline room for the first spanInline phases and the first
	// timeline bin, so a span never grows for a short transfer.
	phases [spanInline]PhaseSnapshot
	bin0   [1]int64
}

// spanInline is how many phases a span holds without growing: a
// server transfer's three and an error.
const spanInline = 4

// Phase closes the current phase and opens the named one.
func (s *Span) Phase(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live {
		return
	}
	s.closePhaseLocked(now)
	s.snap.Phases = append(s.snap.Phases, PhaseSnapshot{Name: p, StartSec: s.log.sinceEpoch(now)})
	s.begun = now
}

// closePhaseLocked stamps the open phase's duration at t.
func (s *Span) closePhaseLocked(t time.Time) {
	if n := len(s.snap.Phases); n > 0 {
		s.snap.Phases[n-1].DurationSec = t.Sub(s.begun).Seconds()
	}
}

// AddBytes accumulates the span's byte count (wire bytes moved on the
// data channels) and buckets it into the throughput timeline.
func (s *Span) AddBytes(n int64) {
	if s == nil || n <= 0 {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live {
		return
	}
	s.snap.Bytes += n
	bin := int(now.Sub(s.snap.Start) / timelineBin)
	if bin < 0 {
		bin = 0
	}
	if bin >= timelineMaxBins {
		bin = timelineMaxBins - 1
	}
	if tl := s.snap.TimelineBytes; bin >= len(tl) {
		if tl == nil {
			tl = s.bin0[:0]
		}
		// A re-armed span's array may hold an earlier transfer's bins.
		s.snap.TimelineBytes = slices.Grow(tl, bin+1-len(tl))[:bin+1]
		clear(s.snap.TimelineBytes[len(tl):])
	}
	s.snap.TimelineBytes[bin] += n
}

// AddThrottleWait accumulates time a data connection spent stalled in
// a pacing limiter on behalf of this span. Concurrent data-path
// goroutines each report their own stalls; the sum may exceed wall
// time.
func (s *Span) AddThrottleWait(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.mu.Lock()
	if s.live {
		s.snap.ThrottleWaitSec += d.Seconds()
	}
	s.mu.Unlock()
}

// SetTrace tags the span with an end-to-end trace ID and the span ID
// of the remote parent that caused it (empty at the root), mints the
// span's own 8-hex span ID, and returns it so callers can propagate
// the parent link downstream. Repeated calls re-tag but keep the first
// minted span ID. An ended span keeps its tags.
func (s *Span) SetTrace(traceID, parentSID string) (sid string) {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live {
		return s.snap.SID
	}
	if s.snap.SID == "" {
		s.snap.SID = NewSpanID()
	}
	s.snap.TraceID = traceID
	s.snap.ParentSID = parentSID
	return s.snap.SID
}

// Trace returns the span's trace ID and own span ID ("" when untagged).
func (s *Span) Trace() (traceID, sid string) {
	if s == nil {
		return "", ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap.TraceID, s.snap.SID
}

// Bytes returns the bytes accumulated so far.
func (s *Span) Bytes() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap.Bytes
}

// SetStreams records how many data connections the operation used.
func (s *Span) SetStreams(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.live {
		s.snap.Streams = n
	}
	s.mu.Unlock()
}

// End completes the span: the open phase is closed, a zero-length
// "error" phase is appended when err != nil, and the span's snapshot is
// copied into the log's completed ring, which no later call changes.
// End is idempotent.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live {
		return
	}
	s.live = false
	s.closePhaseLocked(now)
	if err != nil {
		s.snap.Err = err.Error()
		s.snap.Phases = append(s.snap.Phases, PhaseSnapshot{
			Name:     PhaseError,
			StartSec: s.log.sinceEpoch(now),
		})
	}
	s.snap.DurationSec = now.Sub(s.snap.Start).Seconds()
	if len(s.snap.TimelineBytes) > 0 {
		s.snap.TimelineBinMS = timelineBin.Milliseconds()
	}
	s.log.complete(&s.snap)
}

// SpanLog tracks in-flight spans and keeps a bounded ring of completed
// ones for the /spans snapshot. Each ring slot owns its phase and
// timeline arrays: End copies into them, reusing the arrays of the
// entry it overwrites once the ring has wrapped, and readers get deep
// copies.
type SpanLog struct {
	epoch time.Time

	mu     sync.Mutex
	nextID uint64
	active int
	ring   ring[SpanSnapshot]
}

// NewSpanLog creates a log retaining the last capacity completed spans
// (default 512 when capacity <= 0). Seconds-based fields are relative
// to epoch.
func NewSpanLog(epoch time.Time, capacity int) *SpanLog {
	if capacity <= 0 {
		capacity = 512
	}
	return &SpanLog{epoch: epoch, ring: ring[SpanSnapshot]{cap: capacity}}
}

func (l *SpanLog) sinceEpoch(t time.Time) float64 {
	if l == nil {
		return 0
	}
	return t.Sub(l.epoch).Seconds()
}

// Start opens a new span for op (e.g. "retr") against target (object
// name, peer address) with its first phase: Begin on a span of its own.
// A nil log returns a nil span.
func (l *SpanLog) Start(op, target string, first Phase) *Span {
	if l == nil {
		return nil
	}
	s := new(Span)
	l.Begin(s, op, target, first)
	return s
}

// Begin opens s, storage its owner keeps, as a span for op against
// target with its first phase, reusing the arrays s holds from its last
// use. s must be a zero Span or an ended one. With a nil log s is left
// as it is, so a zero s stays inert.
func (l *SpanLog) Begin(s *Span, op, target string, first Phase) {
	if l == nil || s == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.active++
	l.mu.Unlock()
	start := l.sinceEpoch(now)
	s.mu.Lock()
	defer s.mu.Unlock()
	phases := s.snap.Phases[:0]
	if phases == nil {
		phases = s.phases[:0]
	}
	s.log, s.begun, s.live = l, now, true
	s.snap = SpanSnapshot{
		ID:            id,
		Op:            op,
		Target:        target,
		Start:         now,
		StartSec:      start,
		Phases:        append(phases, PhaseSnapshot{Name: first, StartSec: start}),
		TimelineBytes: s.snap.TimelineBytes[:0],
	}
}

// complete moves an ended span's snapshot into the ring, copying it
// into the next slot's own arrays.
func (l *SpanLog) complete(snap *SpanSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.active--
	slot := l.ring.next()
	phases := slot.Phases[:0]
	if cap(phases) < len(snap.Phases) {
		phases = make([]PhaseSnapshot, 0, max(len(snap.Phases), spanInline))
	}
	bins := append(slot.TimelineBytes[:0], snap.TimelineBytes...)
	*slot = *snap
	slot.Phases, slot.TimelineBytes = append(phases, snap.Phases...), bins
}

// Active returns the number of spans started but not yet ended.
func (l *SpanLog) Active() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.active
}

// Snapshot returns deep copies of the completed spans, oldest first.
func (l *SpanLog) Snapshot() []SpanSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return detach(l.ring.oldestFirst(nil))
}

// ByTrace returns deep copies of the completed spans tagged with the
// given trace ID, oldest first.
func (l *SpanLog) ByTrace(trace string) []SpanSnapshot {
	if l == nil || trace == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return detach(l.ring.oldestFirst(func(s *SpanSnapshot) bool { return s.TraceID == trace }))
}

// detach gives copies of ring entries arrays of their own, so a later
// End that reuses a slot's arrays cannot change them. Called with the
// log's lock held.
func detach(snaps []SpanSnapshot) []SpanSnapshot {
	for i := range snaps {
		s := &snaps[i]
		s.Phases = slices.Clone(s.Phases)
		if len(s.TimelineBytes) == 0 {
			s.TimelineBytes = nil
		} else {
			s.TimelineBytes = slices.Clone(s.TimelineBytes)
		}
	}
	return snaps
}
