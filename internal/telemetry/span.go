package telemetry

import (
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
type Span struct {
	log *SpanLog

	mu      sync.Mutex
	snap    SpanSnapshot
	started []time.Time // phase start times, parallel to snap.Phases
	done    bool
}

// Phase closes the current phase and opens the named one.
func (s *Span) Phase(p Phase) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done {
		return
	}
	s.closePhaseLocked(now)
	s.snap.Phases = append(s.snap.Phases, PhaseSnapshot{Name: p})
	s.started = append(s.started, now)
}

// closePhaseLocked stamps the open phase's start/duration at t.
func (s *Span) closePhaseLocked(t time.Time) {
	if n := len(s.snap.Phases); n > 0 {
		ph := &s.snap.Phases[n-1]
		ph.StartSec = s.log.sinceEpoch(s.started[n-1])
		ph.DurationSec = t.Sub(s.started[n-1]).Seconds()
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
	s.snap.Bytes += n
	bin := int(now.Sub(s.snap.Start) / timelineBin)
	if bin < 0 {
		bin = 0
	}
	if bin >= timelineMaxBins {
		bin = timelineMaxBins - 1
	}
	if bin >= len(s.snap.TimelineBytes) {
		s.snap.TimelineBytes = append(s.snap.TimelineBytes,
			make([]int64, bin+1-len(s.snap.TimelineBytes))...)
	}
	s.snap.TimelineBytes[bin] += n
	s.mu.Unlock()
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
	s.snap.ThrottleWaitSec += d.Seconds()
	s.mu.Unlock()
}

// SetTrace tags the span with an end-to-end trace ID and the span ID
// of the remote parent that caused it (empty at the root), mints the
// span's own 8-hex span ID, and returns it so callers can propagate
// the parent link downstream. Repeated calls re-tag but keep the first
// minted span ID.
func (s *Span) SetTrace(traceID, parentSID string) (sid string) {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.snap.Streams = n
	s.mu.Unlock()
}

// End completes the span: the open phase is closed, a zero-length
// "error" phase is appended when err != nil, and the span moves to the
// log's completed ring. End is idempotent.
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
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
	snap := s.snap
	snap.Phases = append([]PhaseSnapshot(nil), s.snap.Phases...)
	snap.TimelineBytes = append([]int64(nil), s.snap.TimelineBytes...)
	s.mu.Unlock()
	s.log.complete(snap)
}

// SpanLog tracks in-flight spans and keeps a bounded ring of completed
// ones for the /spans snapshot.
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

// Start opens a span for op (e.g. "retr") against target (object name,
// peer address) with its first phase. A nil log returns a nil span.
func (l *SpanLog) Start(op, target string, first Phase) *Span {
	if l == nil {
		return nil
	}
	now := time.Now()
	l.mu.Lock()
	l.nextID++
	id := l.nextID
	l.active++
	l.mu.Unlock()
	s := &Span{
		log: l,
		snap: SpanSnapshot{
			ID:       id,
			Op:       op,
			Target:   target,
			Start:    now,
			StartSec: l.sinceEpoch(now),
			Phases:   []PhaseSnapshot{{Name: first}},
		},
		started: []time.Time{now},
	}
	return s
}

func (l *SpanLog) complete(snap SpanSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.active--
	l.ring.add(snap)
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

// Snapshot returns the completed spans, oldest first.
func (l *SpanLog) Snapshot() []SpanSnapshot {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.oldestFirst(nil)
}

// ByTrace returns the completed spans tagged with the given trace ID,
// oldest first.
func (l *SpanLog) ByTrace(trace string) []SpanSnapshot {
	if l == nil || trace == "" {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.oldestFirst(func(s *SpanSnapshot) bool { return s.TraceID == trace })
}
