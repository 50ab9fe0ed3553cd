// Package xferman is a managed-transfer service in the mould of Globus
// Online, which the paper names as the future source of its datasets: it
// queues third-party GridFTP transfer jobs, executes them on a worker
// pool, retries failures with fresh control channels, and verifies
// integrity with the CKSM checksum command — the "secure and reliable
// data transfers" feature set §II attributes to GridFTP, operated as a
// service.
//
// The manager is the dispatch point of the hybrid VC/IP control plane:
// wire a circuit broker in with WithBroker and every job is offered to
// it before the data moves. Sessions long enough to amortize the VC
// setup delay ride a reserved circuit; everything else (and every job
// when no broker is configured) goes over best-effort IP. The verdict
// for each job is recorded in its Result.Circuit disposition.
//
// All blocking entry points — Submit, Wait, SubmitAll — take a
// context.Context, which also governs the job's own network dials and
// its broker decision RPCs.
package xferman

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/fleet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc/broker"
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrClosed: the manager has been closed; no further submissions.
	ErrClosed = errors.New("xferman: manager closed")
	// ErrUnknownJob: the JobID was never issued by this manager.
	ErrUnknownJob = errors.New("xferman: unknown job")
)

// Endpoint identifies one GridFTP server and the credentials to use.
type Endpoint struct {
	Addr string
	User string
	Pass string
}

// Class is a job's QoS class: the key into the manager's class rate
// table, consulted when neither the job's own RateBps nor a broker
// circuit reservation pins a rate. Classes let operators deprioritize
// background traffic (mirror syncs, prefetches) without touching each
// job: one WithClassRate(ClassBackground, ...) caps the whole tier.
type Class string

const (
	// ClassInteractive: latency-sensitive jobs a user is waiting on.
	ClassInteractive Class = "interactive"
	// ClassBulk: ordinary transfers; the default when Job.Class is empty.
	ClassBulk Class = "bulk"
	// ClassBackground: deprioritized jobs that should yield bandwidth.
	ClassBackground Class = "background"
)

func (c Class) valid() bool {
	switch c {
	case ClassInteractive, ClassBulk, ClassBackground:
		return true
	}
	return false
}

// Job is one requested transfer: move SrcName on Src to DstName on Dst.
type Job struct {
	Src, Dst Endpoint
	SrcName  string
	DstName  string
	// MaxAttempts bounds retries (default 3).
	MaxAttempts int
	// Verify compares src/dst CRC32 checksums after the transfer.
	Verify bool
	// Timeout bounds every control and data I/O on both endpoints'
	// connections. Zero uses the gridftp client defaults (30s); it is a
	// per-operation deadline, not a whole-job budget, so arbitrarily
	// large transfers still complete as long as bytes keep moving.
	Timeout time.Duration
	// SizeHint, when positive, tells the circuit broker how many bytes
	// this job expects to move without a SIZE round trip. Zero means
	// probe the source.
	SizeHint int64
	// Stream relays the object through the manager's own data plane
	// (streaming RETR into a pipe feeding a streaming STOR) instead of
	// a server-to-server third-party transfer. Worker memory stays
	// bounded by WindowBytes and Result.WireBytes is measured exactly
	// rather than derived from destination watermarks.
	Stream bool
	// WindowBytes sizes the streaming reassembly window and upload
	// chunks when Stream is set (default gridftp.DefaultWindowSize).
	WindowBytes int
	// NoResume disables restart-offset retries: every attempt restarts
	// from byte zero, for destinations whose partial objects cannot be
	// trusted. The default resumes at the destination's delivered
	// watermark so a retry re-sends at most one reassembly window.
	NoResume bool
	// RetryBackoff is the base delay before the second attempt; each
	// further attempt doubles it, jittered to 50–150%, capped at
	// RetryBackoffMax. Defaults: 200ms base, 5s cap.
	RetryBackoff    time.Duration
	RetryBackoffMax time.Duration
	// RateBps caps this job's data plane at a fixed rate in bits per
	// second. Zero defers to the broker's reserved circuit rate (the
	// paper's Eq. 2 point: a reservation only predicts transfer time if
	// the transfer actually runs at the reserved rate) and then to the
	// manager's class rate table; see Class.
	RateBps int64
	// Class is the job's QoS class (default ClassBulk).
	Class Class
}

func (j *Job) normalize(fleetManaged bool) error {
	if j.Src.Addr == "" && !fleetManaged {
		return errors.New("xferman: endpoints required")
	}
	if j.Dst.Addr == "" {
		return errors.New("xferman: endpoints required")
	}
	if j.SrcName == "" || j.DstName == "" {
		return errors.New("xferman: object names required")
	}
	if j.MaxAttempts == 0 {
		j.MaxAttempts = 3
	}
	if j.MaxAttempts < 1 {
		return errors.New("xferman: MaxAttempts must be >= 1")
	}
	if j.Timeout < 0 {
		return errors.New("xferman: Timeout must be >= 0")
	}
	if j.SizeHint < 0 {
		return errors.New("xferman: SizeHint must be >= 0")
	}
	if j.WindowBytes < 0 {
		return errors.New("xferman: WindowBytes must be >= 0")
	}
	if j.RetryBackoff < 0 || j.RetryBackoffMax < 0 {
		return errors.New("xferman: retry backoff must be >= 0")
	}
	if j.RetryBackoff == 0 {
		j.RetryBackoff = 200 * time.Millisecond
	}
	if j.RetryBackoffMax == 0 {
		j.RetryBackoffMax = 5 * time.Second
	}
	if j.RateBps < 0 {
		return errors.New("xferman: RateBps must be >= 0")
	}
	if j.Class == "" {
		j.Class = ClassBulk
	}
	if !j.Class.valid() {
		return fmt.Errorf("xferman: unknown class %q", j.Class)
	}
	return nil
}

// Status is a job's lifecycle state.
type Status int

const (
	// Queued: accepted, not yet picked up by a worker.
	Queued Status = iota
	// Running: a worker is executing the transfer.
	Running
	// Succeeded: transferred (and verified, when requested).
	Succeeded
	// Failed: all attempts exhausted.
	Failed
)

func (s Status) String() string {
	switch s {
	case Queued:
		return "QUEUED"
	case Running:
		return "RUNNING"
	case Succeeded:
		return "SUCCEEDED"
	case Failed:
		return "FAILED"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// JobID identifies a submitted job.
type JobID int64

// Result is a job's current state.
type Result struct {
	ID       JobID
	Job      Job
	Status   Status
	Attempts int
	// Err holds the final failure (or the last retried one on success).
	Err string
	// Checksum is the verified CRC32 when Verify was requested.
	Checksum string
	Duration time.Duration
	// Bytes is the object size the transfer moved (from SizeHint or a
	// SIZE probe; zero when neither was available).
	Bytes int64
	// WireBytes is the payload the job pushed toward the destination
	// summed across ALL attempts, duplicates included — the number
	// Bytes hides when retries re-send data. Streaming jobs measure it
	// exactly; third-party jobs derive it from destination watermark
	// probes, which undercounts by at most one reassembly window per
	// failed attempt. WireBytes - Bytes is the job's redundant wire
	// traffic.
	WireBytes int64
	// Circuit records how the hybrid control plane dispatched this job:
	// reserved circuit vs best-effort IP, the circuit ID, the setup wait
	// this job paid, and the fallback reason when a wanted circuit was
	// not obtained. Jobs on a manager without a broker report plain IP.
	Circuit broker.Disposition
	// TraceID is the transfer's trace ID on a manager built
	// WithTracing — the key for /trace/<id> on every instrumented
	// process this job touched. Empty when tracing is off.
	TraceID string
	// ShapedRateBps is the rate the job's data plane was shaped to, in
	// bits per second: Job.RateBps, else the broker's reserved circuit
	// rate, else the class rate. Zero means the job ran unshaped.
	ShapedRateBps int64
	// Replica is the source replica the fleet dispatcher placed the
	// final attempt on, when the manager was built WithFleet and the job
	// left Src.Addr empty. Empty otherwise.
	Replica string
}

type tracked struct {
	result Result
	ctx    context.Context
	done   chan struct{}
	read   bool // final result returned by Wait or Result
}

// maxSettledJobs is how many read jobs a Manager remembers: a job whose
// final result Wait or Result has returned is forgotten once
// maxSettledJobs later ones have been read, and Wait/Result on its ID
// then answer ErrUnknownJob. Queued, running and unread finished jobs
// are always kept, so submitting any number of jobs and only then
// waiting on each in turn loses none.
const maxSettledJobs = 1024

// Manager executes jobs on a bounded worker pool.
type Manager struct {
	queue chan JobID

	mu   sync.Mutex
	jobs map[JobID]*tracked
	// settled rings the IDs of read jobs, oldest at settledHead once
	// full; overwriting a slot forgets the job it held.
	settled     []JobID
	settledHead int

	nextID     JobID
	submitting sync.WaitGroup // in-flight Submit sends, gated by mu+closed

	wg     sync.WaitGroup
	closed bool

	hub        *telemetry.Hub
	broker     *broker.Broker
	fleet      *fleet.Dispatcher
	pool       *connpool.Pool
	tracing    bool
	classRates map[Class]int64
	met        xmMetrics
}

// xmMetrics is the manager's instrument set. With a nil hub every
// instrument is nil and the calls are no-ops.
type xmMetrics struct {
	submitted  *telemetry.Counter
	queueDepth *telemetry.Gauge
	running    *telemetry.Gauge
	retries    *telemetry.Counter
	durations  *telemetry.Histogram
	// wireBytes vs deliveredBytes is the manager-level redundancy
	// signal: their gap is payload that crossed the network more than
	// once because a retry re-sent it.
	wireBytes      *telemetry.Counter
	deliveredBytes *telemetry.Counter
	resumed        *telemetry.Counter
}

// Option configures a Manager.
type Option func(*Manager)

// WithTelemetry publishes queue, retry, and job-latency metrics on hub
// and threads the hub into every gridftp client the manager dials, so
// worker-driven transfers show up as client spans and metrics too.
func WithTelemetry(hub *telemetry.Hub) Option {
	return func(m *Manager) { m.hub = hub }
}

// WithPool draws workers' control channels from an endpoint-keyed pool
// instead of dialing fresh per attempt: an attempt's one GetPair costs
// no round trip on a live pair rather than two dial + login handshakes,
// and the post-failure watermark probe reuses a pooled channel too. The
// manager does not own the pool — close the manager first, then the pool.
//
// Pooled channels outlive any one job, so they dial with the pool's own
// dialer, not the job context's; cancellation still aborts the job
// between operations and bounds every I/O with the job Timeout.
func WithPool(p *connpool.Pool) Option {
	return func(m *Manager) { m.pool = p }
}

// WithBroker offers every job to a session-aware circuit broker before
// its data moves; the broker's verdict lands in Result.Circuit. The
// manager does not own the broker — close the manager first, then the
// broker, then its client.
func WithBroker(b *broker.Broker) Option {
	return func(m *Manager) { m.broker = b }
}

// WithFleet places jobs that leave Src.Addr empty across the
// dispatcher's replica set: each attempt asks the fleet for the replica
// the Eq. 2 contention model predicts gives the highest effective rate
// right now, and a retry is free to move to a different replica than
// the failed attempt's (counted as a rebalance). Jobs that pin Src.Addr
// bypass the fleet entirely. The manager does not own the dispatcher —
// close the manager first, then the fleet.
func WithFleet(d *fleet.Dispatcher) Option {
	return func(m *Manager) { m.fleet = d }
}

// WithTracing mints an end-to-end TraceContext per job and propagates
// it everywhere the job goes: both endpoints learn it over the control
// channel via SITE TRID (old servers degrade silently), the broker and
// the vc client carry it to the reservation daemon, and pool checkouts
// tag their hit/miss events with it. Each traced job also gets a root
// "job" span on the manager's hub, the anchor /trace/<id> stitches the
// cross-process tree under. Off by default: an untraced manager sends
// nothing trace-related on any wire, keeping output byte-identical.
func WithTracing() Option {
	return func(m *Manager) { m.tracing = true }
}

// WithClassRate caps every job of the given class at rateBps bits per
// second, unless the job pins its own RateBps or rides a circuit with a
// reserved rate (both of which win). The usual deployment shapes only
// ClassBackground, leaving interactive and bulk traffic free-running.
func WithClassRate(class Class, rateBps int64) Option {
	return func(m *Manager) {
		if m.classRates == nil {
			m.classRates = make(map[Class]int64)
		}
		m.classRates[class] = rateBps
	}
}

// New starts a manager with the given number of workers.
func New(workers int, opts ...Option) (*Manager, error) {
	if workers < 1 {
		return nil, errors.New("xferman: need at least one worker")
	}
	m := &Manager{
		queue: make(chan JobID, 1024),
		jobs:  make(map[JobID]*tracked),
	}
	for _, opt := range opts {
		opt(m)
	}
	if m.hub != nil {
		m.met = xmMetrics{
			submitted: m.hub.Counter("xferman_jobs_submitted_total",
				"Transfer jobs accepted into the queue."),
			queueDepth: m.hub.Gauge("xferman_queue_depth",
				"Jobs queued and not yet picked up by a worker."),
			running: m.hub.Gauge("xferman_jobs_running",
				"Jobs currently executing on a worker."),
			retries: m.hub.Counter("xferman_retries_total",
				"Failed attempts that were retried with fresh control channels."),
			durations: m.hub.Histogram("xferman_job_duration_seconds",
				"End-to-end job latency including retries.", telemetry.DurationBuckets),
			wireBytes: m.hub.Counter("xferman_wire_bytes_total",
				"Payload bytes pushed toward destinations across all attempts, duplicates included."),
			deliveredBytes: m.hub.Counter("xferman_delivered_bytes_total",
				"Payload bytes durably delivered to destinations exactly once."),
			resumed: m.hub.Counter("xferman_resumed_attempts_total",
				"Retry attempts that restarted from a destination watermark instead of byte zero."),
		}
	}
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// Submit queues a job and returns its ID. ctx governs the job for its
// whole life: a cancelled context stops retries and aborts the job's
// network dials. Submit after Close returns ErrClosed.
func (m *Manager) Submit(ctx context.Context, job Job) (JobID, error) {
	if err := job.normalize(m.fleet != nil); err != nil {
		return 0, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, ErrClosed
	}
	m.nextID++
	id := m.nextID
	m.jobs[id] = &tracked{
		result: Result{ID: id, Job: job, Status: Queued},
		ctx:    ctx,
		done:   make(chan struct{}),
	}
	// Register the queue send while still under the closed check, so
	// Close cannot close(m.queue) between our unlock and the send.
	m.submitting.Add(1)
	m.mu.Unlock()
	defer m.submitting.Done()
	m.met.queueDepth.Inc()
	select {
	case m.queue <- id:
	case <-ctx.Done():
		// The queue is full and the caller gave up: the job was never
		// queued, so no worker will ever settle it — unregister it.
		m.met.queueDepth.Dec()
		m.mu.Lock()
		delete(m.jobs, id)
		m.mu.Unlock()
		return 0, ctx.Err()
	}
	m.met.submitted.Inc()
	return id, nil
}

// Wait blocks until the job finishes (or ctx is done) and returns its
// result. An unknown ID, or one of a job forgotten after
// maxSettledJobs later ones were read, reports ErrUnknownJob.
func (m *Manager) Wait(ctx context.Context, id JobID) (Result, error) {
	m.mu.Lock()
	tr := m.jobs[id]
	m.mu.Unlock()
	if tr == nil {
		return Result{}, fmt.Errorf("%w %d", ErrUnknownJob, id)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-tr.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readLocked(id, tr)
	return tr.result, nil
}

// Result returns a job's current state without blocking. An unknown
// or forgotten ID reports ErrUnknownJob, as in Wait.
func (m *Manager) Result(id JobID) (Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr := m.jobs[id]
	if tr == nil {
		return Result{}, fmt.Errorf("%w %d", ErrUnknownJob, id)
	}
	if s := tr.result.Status; s == Succeeded || s == Failed {
		m.readLocked(id, tr)
	}
	return tr.result, nil
}

// SubmitAll lists the source endpoint's objects under prefix (NLST) and
// submits one job per object, preserving names at the destination. tmpl
// provides MaxAttempts/Verify/Timeout; its endpoints and names are
// overwritten. ctx bounds the listing dial and carries into every
// submitted job.
func (m *Manager) SubmitAll(ctx context.Context, src, dst Endpoint, prefix string, tmpl Job) ([]JobID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c, err := m.dial(ctx, src, tmpl.clientOptions())
	if err != nil {
		return nil, fmt.Errorf("xferman: dial src: %w", err)
	}
	defer c.Close()
	names, err := c.List(prefix)
	if err != nil {
		return nil, fmt.Errorf("xferman: list: %w", err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("xferman: no objects under %q", prefix)
	}
	ids := make([]JobID, 0, len(names))
	for _, name := range names {
		job := tmpl
		job.Src, job.Dst = src, dst
		job.SrcName, job.DstName = name, name
		id, err := m.Submit(ctx, job)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// Close stops accepting jobs and waits for in-flight work to finish.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	// Every Submit that passed the closed check has registered its send;
	// wait those out before closing the channel they send on.
	m.submitting.Wait()
	close(m.queue)
	m.wg.Wait()
}

// readLocked records that the finished job id's result has been
// returned, forgetting the oldest read job once maxSettledJobs are
// remembered.
func (m *Manager) readLocked(id JobID, tr *tracked) {
	if tr.read {
		return
	}
	tr.read = true
	if len(m.settled) < maxSettledJobs {
		m.settled = append(m.settled, id)
		return
	}
	delete(m.jobs, m.settled[m.settledHead])
	m.settled[m.settledHead] = id
	m.settledHead = (m.settledHead + 1) % maxSettledJobs
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for id := range m.queue {
		m.mu.Lock()
		tr := m.jobs[id]
		tr.result.Status = Running
		// The run fills the worker's own copy, published whole when the
		// job settles: Result may read tr.result at any moment.
		res := tr.result
		m.mu.Unlock()
		m.met.queueDepth.Dec()
		m.met.running.Inc()

		r := run{m: m, ctx: tr.ctx, job: res.Job, res: &res}
		start := time.Now()
		err := r.execute()
		res.Duration = time.Since(start)
		res.Status = Succeeded
		if err != nil {
			res.Status, res.Err = Failed, err.Error()
		}
		m.mu.Lock()
		tr.result = res
		m.mu.Unlock()
		m.met.running.Dec()
		m.met.durations.Observe(res.Duration.Seconds())
		m.met.wireBytes.Add(res.WireBytes)
		m.met.deliveredBytes.Add(r.delivered)
		if m.hub != nil {
			m.hub.Counter("xferman_jobs_completed_total",
				"Jobs finished, by final status.",
				telemetry.L("status", res.Status.String())).Inc()
			if res.ShapedRateBps > 0 {
				m.hub.Counter("xferman_paced_jobs_total",
					"Jobs whose data plane was rate-shaped, by QoS class.",
					telemetry.L("class", string(res.Job.Class))).Inc()
			}
		}
		close(tr.done)
	}
}

// run is one job's execution state, private to the worker executing it.
// The stages fill res — the job's own Result — in place.
type run struct {
	m    *Manager
	ctx  context.Context
	job  Job
	span *telemetry.Span // root "job" span; nil unless the manager traces
	res  *Result

	restart   int64 // offset the next attempt RESTs both endpoints to
	delivered int64 // payload durably at the destination so far

	attemptState
}

// attemptState is what one attempt's stages hand each other: attempt
// zeroes it, settle releases what it holds.
type attemptState struct {
	from      Endpoint // the job's source, fleet-managed address resolved
	placement *fleet.Placement
	placed    time.Time
	src, dst  channel
	vcLease   *broker.Lease
	lim       *pacing.Limiter // paces a shaped streaming job's STOR leg
	// leased is what a clean transfer stage reports to the broker lease:
	// the object size, moved in xferTime.
	leased   int64
	xferTime time.Duration
	// moved is the payload this attempt is known to have pushed toward
	// the destination; see transfer.
	moved int64
	// dstEngaged: the destination accepted this attempt's STOR, so the
	// object under DstName now reflects this job's own transfer (the
	// windowed server truncates it to the restart base on acceptance)
	// and its SIZE is a trustworthy restart watermark. A failure before
	// acceptance leaves any pre-existing destination object untouched —
	// resuming at its stale SIZE would splice old bytes under new ones.
	dstEngaged bool
}

// stages is one attempt, in order. A traced job's span opens a phase
// named after each stage as it starts: its trace reads as this table.
var stages = [...]struct {
	name telemetry.Phase
	fn   func(*run) error
}{
	{"place", (*run).place},
	{"checkout", (*run).checkout},
	{"size", (*run).size},
	{"lease", (*run).lease},
	{"shape", (*run).shape},
	{"transfer", (*run).transfer},
	{"verify", (*run).verify},
}

// event flight-records one line under the job's trace, if it has one.
func (r *run) event(kind, format string, args ...any) {
	if r.res.TraceID != "" {
		r.m.hub.Event(r.res.TraceID, kind, fmt.Sprintf(format, args...))
	}
}

// execute runs the job with retries; every attempt uses control
// channels the failed previous attempt never touched — its own are
// discarded, not recycled, because a failed transfer may have poisoned
// them (pooled checkouts enforce this via Discard-on-error). Between
// attempts resumeAfter decides where the next one starts and a jittered
// exponential backoff passes ("idle" on the job span). A done context
// stops further attempts. On a manager built WithTracing it first mints
// the trace ID, opens the root "job" span every downstream span links
// under, and flight-records the job boundaries.
func (r *run) execute() (err error) {
	r.res.Bytes, r.res.Circuit = r.job.SizeHint, broker.Disposition{Service: broker.ServiceIP}
	if r.m.tracing {
		tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
		r.span = r.m.hub.Span("job", r.job.SrcName+" -> "+r.job.DstName, telemetry.PhaseSetup)
		tc.ParentSID = r.span.SetTrace(tc.TraceID, "")
		r.ctx = telemetry.WithTrace(r.ctx, tc)
		r.res.TraceID = tc.TraceID
		r.event("job_start", "%s -> %s", r.job.SrcName, r.job.DstName)
		defer func() {
			done := "ok"
			if err != nil {
				done = err.Error()
			}
			r.event("job_done", "attempts=%d bytes=%d %s", r.res.Attempts, r.res.Bytes, done)
			r.span.End(err)
		}()
	}
	canResume := !r.job.NoResume
	for {
		if cerr := r.ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return err
		}
		r.res.Attempts++
		if r.restart > 0 {
			r.m.met.resumed.Inc()
			r.event("resume", "attempt=%d offset=%d", r.res.Attempts, r.restart)
		}
		err = r.attempt()
		final := err == nil || r.res.Attempts >= r.job.MaxAttempts
		var probe func() int64
		if !final {
			r.span.Phase(telemetry.PhaseIdle)
			probe = r.probeWatermark
		}
		var wire int64
		r.restart, canResume, wire, r.delivered = resumeAfter(
			r.restart, canResume, err, r.dstEngaged, probe, r.res.Bytes, r.moved)
		r.res.WireBytes += wire
		if final {
			return err
		}
		r.m.met.retries.Inc()
		r.event("retry", "attempt=%d failed: %v", r.res.Attempts, err)
		// A cancelled job must not hold a worker hostage for a
		// multi-second backoff: the loop head then ends it.
		t := time.NewTimer(backoffDelay(r.job.RetryBackoff, r.job.RetryBackoffMax, r.res.Attempts))
		select {
		case <-r.ctx.Done():
		case <-t.C:
		}
		t.Stop()
	}
}

// resumeAfter is the whole retry rule. From where an attempt started
// (restart), whether restarts are still on the table, and what the
// attempt reported — its error, whether the destination engaged, the
// object size (zero: never learned), the payload it is known to have
// moved — it answers where the next attempt starts, whether that one
// may still resume, the wire traffic to credit the attempt with, and
// how much of the object is durably delivered. watermark probes the
// destination's contiguous delivered bytes (zero: no usable partial);
// it is nil when no retry follows — a probe then buys only accounting,
// at the cost of a dial to an endpoint that just failed.
func resumeAfter(restart int64, canResume bool, err error, dstEngaged bool, watermark func() int64, size, moved int64) (next int64, resume bool, wire, delivered int64) {
	if err == nil {
		return restart, canResume, moved, size
	}
	next, wire = restart, moved
	switch {
	case watermark == nil:
	case restart > 0 && isRestRejected(err):
		// The endpoint doesn't do restarts; stop asking.
		next, canResume = 0, false
	case dstEngaged:
		// The probe doubles as wire accounting for third-party attempts:
		// bytes that became durable during the failed attempt were moved
		// by it (a streaming attempt's own count already covers them). A
		// watermark at or past the known size is no partial of this
		// object.
		if w := watermark(); w > restart && (size <= 0 || w < size) {
			wire = max(moved, w-restart)
			if canResume {
				next = w
			}
		}
	}
	return next, canResume, wire, next
}

// attempt runs one try of the transfer: the stages in order, stopping
// at the first that fails, then settle.
func (r *run) attempt() (err error) {
	r.attemptState = attemptState{}
	// An attempt that dies before the broker is asked reports plain
	// unshaped IP, not the previous attempt's verdict.
	r.res.Circuit, r.res.ShapedRateBps = broker.Disposition{Service: broker.ServiceIP}, 0
	defer func() { r.settle(err) }()
	for _, st := range stages {
		r.span.Phase(st.name)
		if err = st.fn(r); err != nil {
			return err
		}
	}
	return nil
}

// settle releases what the attempt's stages acquired — broker lease,
// both control channels, fleet placement — exactly once, whichever
// stage the attempt ended in. Each release is a no-op on a holder its
// stage never filled.
func (r *run) settle(err error) {
	r.vcLease.End(r.leased, r.xferTime)
	r.dst.finish(err)
	r.src.finish(err)
	r.placement.Complete(r.moved, time.Since(r.placed), err)
}

// place resolves a fleet-managed job's source replica, per attempt:
// the dispatcher sees the loads as they are NOW, so a retry after a
// multi-second failed attempt may land somewhere better than the first
// placement did (a rebalance).
func (r *run) place() error {
	r.from = r.job.Src
	if r.m.fleet == nil || r.from.Addr != "" {
		return nil
	}
	p, err := r.m.fleet.Place(r.ctx, fleet.Request{SizeBytes: r.res.Bytes, Previous: r.res.Replica})
	if err != nil {
		return fmt.Errorf("fleet place: %w", err)
	}
	r.placement, r.placed = p, time.Now()
	r.from.Addr, r.res.Replica = p.Addr, p.Addr
	r.event("fleet_placed", "attempt=%d replica=%s fallback=%v", r.res.Attempts, p.Addr, p.Fallback)
	return nil
}

// checkout takes the attempt's two control channels: with a pool, one
// GetPair, which hands back the src/dst pair that last ran together so
// a third-party copy finds the data channel their servers kept (settle
// parks the two as mates again); without one, a dial of each.
func (r *run) checkout() (err error) {
	var src, dst *connpool.Conn
	if r.m.pool != nil {
		src, dst, err = r.m.pool.GetPair(r.ctx,
			r.from.Addr, r.from.User, r.from.Pass,
			r.job.Dst.Addr, r.job.Dst.User, r.job.Dst.Pass)
		if err != nil {
			return fmt.Errorf("checkout: %w", err)
		}
	}
	if r.src, err = r.m.checkout(r.ctx, r.from, r.job, src); err != nil {
		dst.Release()
		return fmt.Errorf("dial src: %w", err)
	}
	if r.dst, err = r.m.checkout(r.ctx, r.job.Dst, r.job, dst); err != nil {
		return fmt.Errorf("dial dst: %w", err)
	}
	return nil
}

// size probes the object size an unhinted job needs: the broker sizes
// circuits from bytes, the streaming relay needs the region length, and
// resume-aware retries clamp destination watermarks against it. A
// failed probe just means an unhinted decision, not a failed job.
func (r *run) size() error {
	if r.job.SizeHint <= 0 && (r.m.broker != nil || r.job.Stream || !r.job.NoResume) {
		if n, err := r.src.Size(r.job.SrcName); err == nil && n > 0 {
			r.res.Bytes = n
		}
	}
	return nil
}

// lease lets the broker take the circuit decision.
func (r *run) lease() error {
	r.vcLease = r.m.broker.Begin(r.ctx, r.from.Addr, r.job.Dst.Addr, r.res.Bytes)
	r.res.Circuit = r.vcLease.Disposition()
	return nil
}

// shape resolves the rate this attempt's data plane is shaped to and
// wires the enforcement in. A VC job is shaped to the broker's reserved
// rate automatically — the reservation becomes a wire-level fact —
// unless the job pins its own RateBps; otherwise the class table
// applies. Streaming jobs pace locally (the STOR leg's bucket
// backpressures the RETR leg through the pipe) and re-fill the bucket
// live when a later extension re-books the circuit at a new rate.
// Third-party jobs never touch the data, so the source server is asked
// to shape its session instead (SITE RATE).
func (r *run) shape() error {
	r.res.ShapedRateBps = r.m.rateFor(r.job, r.res.Circuit)
	switch rate := r.res.ShapedRateBps; {
	case rate <= 0:
	case r.job.Stream:
		b := pacing.NewBucket(rate, 0)
		r.vcLease.OnRateChange(func(bps float64) {
			if bps > 0 {
				b.SetRate(int64(bps))
			}
		})
		r.lim = pacing.NewLimiter(b)
	default:
		if err := r.src.ApplyOptions(gridftp.WithRate(rate)); err != nil {
			return fmt.Errorf("shape src: %w", err)
		}
	}
	return nil
}

// rateFor resolves one attempt's shaping rate: the job's own pin, else
// the broker's reserved circuit rate, else the class table (zero means
// unshaped — the default for every class without a configured rate).
func (m *Manager) rateFor(job Job, disp broker.Disposition) int64 {
	if job.RateBps > 0 {
		return job.RateBps
	}
	if disp.Service == broker.ServiceVC && disp.RateBps > 0 {
		return int64(disp.RateBps)
	}
	return m.classRates[job.Class]
}

// transfer moves the data, restarting at r.restart when a prior attempt
// already delivered a prefix.
func (r *run) transfer() (err error) {
	start := time.Now()
	if r.job.Stream {
		err = r.streamRelay()
	} else {
		r.dstEngaged, err = gridftp.ThirdPartyFrom(r.src.Client, r.dst.Client, r.job.SrcName, r.job.DstName, r.restart)
		// Third-party attempts can't see their own wire count; the delta
		// from the restart offset to the object end is exact for a clean
		// attempt (skipped when the size never became known — better to
		// undercount than invent bytes).
		if err == nil && r.res.Bytes > r.restart {
			r.moved = r.res.Bytes - r.restart
		}
	}
	if err != nil {
		return fmt.Errorf("transfer: %w", err)
	}
	r.leased, r.xferTime = r.res.Bytes, time.Since(start)
	return nil
}

// streamRelay moves the object through this process: a streaming RETR
// feeds an io.Pipe that a streaming STOR drains, both restarting at
// r.restart. Memory is bounded by the client window on the read side
// and a few blocks on the write side. It records the payload pushed to
// dst (duplicates included), which is exact even on failure, and
// whether dst accepted the STOR — the precondition for trusting its
// SIZE as this job's watermark on the next attempt.
func (r *run) streamRelay() error {
	pr, pw := io.Pipe()
	region := int64(-1)
	if r.res.Bytes > 0 {
		region = r.res.Bytes - r.restart
	}
	var stats gridftp.TransferStats
	var storErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The limiter paces only the STOR leg; the pipe's backpressure
		// throttles the RETR leg to the same rate transitively.
		stats, storErr = r.dst.StorFromAt(r.ctx, r.job.DstName, pr, r.restart, region, gridftp.WithLimiter(r.lim))
		// Unblock the RETR side if the STOR leg died first.
		pr.CloseWithError(storErr)
	}()
	_, retrErr := r.src.RetrToAt(r.ctx, r.job.SrcName, pw, r.restart)
	// nil closes the pipe cleanly (EOF): the STOR leg finishes its
	// drain; an error propagates to its reader as the source failure.
	pw.CloseWithError(retrErr)
	<-done
	r.moved, r.dstEngaged = stats.WireBytes, stats.StorAccepted
	if retrErr != nil {
		return fmt.Errorf("retr leg: %w", retrErr)
	}
	if storErr != nil {
		return fmt.Errorf("stor leg: %w", storErr)
	}
	return nil
}

func (r *run) verify() error {
	if !r.job.Verify {
		return nil
	}
	want, err := r.src.Checksum(r.job.SrcName)
	if err != nil {
		return fmt.Errorf("src checksum: %w", err)
	}
	got, err := r.dst.Checksum(r.job.DstName)
	if err != nil {
		return fmt.Errorf("dst checksum: %w", err)
	}
	if want != got {
		return fmt.Errorf("checksum mismatch: src %s, dst %s", want, got)
	}
	r.res.Checksum = got
	return nil
}

// probeWatermark asks the destination how many contiguous bytes of the
// job's object it holds, over a channel that is not the failed
// attempt's (which may be poisoned). Zero means "no usable partial" —
// probing is best-effort and a failed probe only costs resumption.
func (r *run) probeWatermark() int64 {
	ch, err := r.m.checkout(r.ctx, r.job.Dst, r.job, nil)
	if err != nil {
		return 0
	}
	n, err := ch.Size(r.job.DstName)
	ch.finish(err)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// backoffDelay is the jittered exponential wait before the retry that
// follows attempt n (n >= 1): base doubled per attempt, scaled by a
// uniform 50-150% jitter so synchronized job fleets don't re-dial a
// recovering server in lockstep, capped at max.
func backoffDelay(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	if d > max {
		d = max
	}
	return d
}

// isRestRejected reports whether a resumed attempt died because the
// peer refused to restart mid-object, in which case resuming is off
// the table and the retry must restart from byte zero. Refusal takes
// two shapes: the REST verb itself bounces, or REST is accepted (350)
// and the transfer verb that consumes it bounces — this repo's server
// answers the resumed STOR with 554 when the store rejects the restart
// offset (it outruns the stored partial, or the backend cannot resume),
// and foreign servers without restart support answer 501. The caller
// only consults this after a nonzero-REST attempt, so a 501/554 on
// STOR/RETR here is a restart rejection, not a syntax quibble.
func isRestRejected(err error) bool {
	var pe *gridftp.ProtocolError
	if !errors.As(err, &pe) {
		return false
	}
	switch pe.Verb {
	case "REST":
		return true
	case "STOR", "RETR":
		return pe.Reply.Code == 501 || pe.Reply.Code == 554
	}
	return false
}

// channel is one control channel held for an attempt or a probe: a
// pooled checkout when the manager has a pool, its own dial otherwise.
type channel struct {
	*gridftp.Client
	pooled *connpool.Conn
}

// finish settles the channel with its holder's final error: a clean
// pooled channel parks for the next job, anything else closes.
func (ch channel) finish(err error) {
	switch {
	case ch.Client == nil: // never obtained
	case ch.pooled == nil:
		ch.Close()
	case err != nil:
		ch.pooled.Discard()
	default:
		ch.pooled.Release()
	}
}

// checkout obtains a control channel to ep bound to job's deadlines,
// window, and trace: leased, else a pooled Get, else a dial of its own.
// The job's options are built once: a fresh dial runs under them from
// the greeting on; a pooled channel keeps the transfer state of whoever
// used it last, so one ApplyOptions call rebinds them (unset values to
// the defaults a fresh Dial applies). The trace needs a logged-in
// session (SITE TRID), so it is bound after either. Rate shaping is NOT
// bound here — it depends on the broker's disposition, which the
// attempt only learns after checkout.
func (m *Manager) checkout(ctx context.Context, ep Endpoint, job Job, leased *connpool.Conn) (ch channel, err error) {
	opts := job.clientOptions()
	if leased == nil && m.pool != nil {
		leased, err = m.pool.Get(ctx, ep.Addr, ep.User, ep.Pass)
	}
	if leased != nil {
		ch = channel{leased.Client, leased}
	} else if err == nil {
		ch.Client, err = m.dial(ctx, ep, opts)
		opts = nil // Dial applied them
	}
	if err != nil {
		return channel{}, err
	}
	if tc, ok := telemetry.TraceFrom(ctx); ok {
		opts = append(opts, gridftp.WithTrace(tc))
	}
	if err := ch.ApplyOptions(opts...); err != nil {
		ch.finish(err)
		return channel{}, err
	}
	return ch, nil
}

// clientOptions is the one place a Job becomes gridftp options: its
// per-operation deadline resolved against the client defaults, and the
// reassembly window a streaming job relays through.
func (j *Job) clientOptions() []gridftp.Option {
	control, data := gridftp.DefaultControlTimeout, gridftp.DefaultDataTimeout
	if j.Timeout > 0 {
		control, data = j.Timeout, j.Timeout
	}
	opts := []gridftp.Option{gridftp.WithControlTimeout(control), gridftp.WithDataTimeout(data)}
	if j.Stream {
		w := j.WindowBytes
		if w <= 0 {
			w = gridftp.DefaultWindowSize
		}
		opts = append(opts, gridftp.WithWindow(w))
	}
	return opts
}

// dial opens and authenticates a control channel of the manager's own
// under opts. Every dial the manager makes goes through here, so each
// one reports to the hub and is bound to ctx: cancelling it aborts
// connection establishment (control and data) immediately.
func (m *Manager) dial(ctx context.Context, ep Endpoint, opts []gridftp.Option) (*gridftp.Client, error) {
	var d net.Dialer
	c, err := gridftp.Dial(ep.Addr, append(opts,
		gridftp.WithDialFunc(func(network, addr string) (net.Conn, error) {
			return d.DialContext(ctx, network, addr)
		}),
		gridftp.WithTelemetry(m.hub))...)
	if err != nil {
		return nil, err
	}
	if err := c.Login(ep.User, ep.Pass); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}
