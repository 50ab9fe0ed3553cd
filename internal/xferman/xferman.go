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

// dialOpts translates the job's Timeout into gridftp client options and
// binds every dial (control and data) to ctx, so cancelling the job's
// context aborts connection establishment immediately.
func (j *Job) dialOpts(ctx context.Context) []gridftp.Option {
	var d net.Dialer
	opts := []gridftp.Option{
		gridftp.WithDialFunc(func(network, addr string) (net.Conn, error) {
			return d.DialContext(ctx, network, addr)
		}),
	}
	if j.Timeout > 0 {
		opts = append(opts,
			gridftp.WithControlTimeout(j.Timeout),
			gridftp.WithDataTimeout(j.Timeout),
		)
	}
	if j.Stream && j.WindowBytes > 0 {
		opts = append(opts, gridftp.WithWindow(j.WindowBytes))
	}
	return opts
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
}

// Manager executes jobs on a bounded worker pool.
type Manager struct {
	queue chan JobID

	mu         sync.Mutex
	jobs       map[JobID]*tracked
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
// instead of dialing fresh per attempt: checkout costs a NOOP round
// trip on a live channel rather than a dial + login handshake, and the
// post-failure watermark probe reuses a pooled channel too. The manager
// does not own the pool — close the manager first, then the pool.
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
	m.met.submitted.Inc()
	m.met.queueDepth.Inc()
	m.queue <- id
	m.submitting.Done()
	return id, nil
}

// Wait blocks until the job finishes (or ctx is done) and returns its
// result. An unknown ID reports ErrUnknownJob.
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
	return tr.result, nil
}

// Result returns a job's current state without blocking. An unknown ID
// reports ErrUnknownJob.
func (m *Manager) Result(id JobID) (Result, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tr := m.jobs[id]
	if tr == nil {
		return Result{}, fmt.Errorf("%w %d", ErrUnknownJob, id)
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
	c, err := gridftp.Dial(src.Addr, tmpl.dialOpts(ctx)...)
	if err != nil {
		return nil, fmt.Errorf("xferman: dial src: %w", err)
	}
	defer c.Close()
	if err := c.Login(src.User, src.Pass); err != nil {
		return nil, fmt.Errorf("xferman: login src: %w", err)
	}
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

func (m *Manager) worker() {
	defer m.wg.Done()
	for id := range m.queue {
		m.mu.Lock()
		tr := m.jobs[id]
		tr.result.Status = Running
		job := tr.result.Job
		ctx := tr.ctx
		m.mu.Unlock()
		m.met.queueDepth.Dec()
		m.met.running.Inc()

		start := time.Now()
		out := m.execute(ctx, job)
		m.mu.Lock()
		tr.result.Attempts = out.attempts
		tr.result.Duration = time.Since(start)
		tr.result.Checksum = out.checksum
		tr.result.Bytes = out.bytes
		tr.result.WireBytes = out.wire
		tr.result.Circuit = out.circuit
		tr.result.TraceID = out.trace
		tr.result.ShapedRateBps = out.shapedRate
		tr.result.Replica = out.replica
		if out.err != nil {
			tr.result.Status = Failed
			tr.result.Err = out.err.Error()
		} else {
			tr.result.Status = Succeeded
		}
		status := tr.result.Status
		m.mu.Unlock()
		m.met.running.Dec()
		m.met.durations.Observe(time.Since(start).Seconds())
		m.met.wireBytes.Add(out.wire)
		m.met.deliveredBytes.Add(out.delivered)
		if m.hub != nil {
			m.hub.Counter("xferman_jobs_completed_total",
				"Jobs finished, by final status.",
				telemetry.L("status", status.String())).Inc()
			if out.shapedRate > 0 {
				m.hub.Counter("xferman_paced_jobs_total",
					"Jobs whose data plane was rate-shaped, by QoS class.",
					telemetry.L("class", string(job.Class))).Inc()
			}
		}
		close(tr.done)
	}
}

// outcome is one job's final execution state.
type outcome struct {
	checksum string
	bytes    int64
	// wire is payload pushed toward the destination across all
	// attempts, duplicates included; delivered is what durably landed.
	wire       int64
	delivered  int64
	circuit    broker.Disposition
	shapedRate int64
	attempts   int
	trace      string
	replica    string
	err        error
}

// attemptOut is one attempt's report back to the retry loop.
type attemptOut struct {
	checksum string
	bytes    int64 // object size, when learned
	moved    int64 // payload this attempt pushed (exact for streaming, else -1)
	circuit  broker.Disposition
	// shapedRate is the rate this attempt's data plane was shaped to
	// (bits per second; zero when unshaped).
	shapedRate int64
	// dstEngaged: the destination accepted this attempt's STOR, so the
	// object under DstName now reflects this job's own transfer (the
	// windowed server truncates it to the restart base on acceptance)
	// and its SIZE is a trustworthy restart watermark. A failure before
	// acceptance leaves any pre-existing destination object untouched —
	// resuming at its stale SIZE would splice old bytes under new ones.
	dstEngaged bool
	err        error
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

// sleepBackoff waits the backoff out, returning early if the job's
// context is done — a cancelled job must not hold a worker hostage for
// a multi-second backoff.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
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

// checkout obtains one attempt's control channel to ep: from the pool
// when the manager has one (the failed previous attempt's channel was
// discarded, so a pooled checkout is always either a healthy reused
// channel or a fresh dial), a plain dial + login otherwise. The
// returned finish func must be called exactly once with the attempt's
// final error: a clean pooled channel parks for the next job, anything
// else closes.
func (m *Manager) checkout(ctx context.Context, ep Endpoint, job Job, opts []gridftp.Option) (*gridftp.Client, func(error), error) {
	if m.pool != nil {
		pc, err := m.pool.Get(ctx, ep.Addr, ep.User, ep.Pass)
		if err != nil {
			return nil, nil, err
		}
		// A pooled channel keeps the transfer state of whoever used it
		// last; one ApplyOptions call rebinds deadlines, window, and
		// trace to this job's (falling back to the client defaults,
		// which a fresh Dial would have applied). Rate shaping is NOT
		// bound here — it depends on the broker's disposition, which the
		// attempt only learns after checkout.
		ctl, data := gridftp.DefaultControlTimeout, gridftp.DefaultDataTimeout
		if job.Timeout > 0 {
			ctl, data = job.Timeout, job.Timeout
		}
		topts := []gridftp.TransferOption{gridftp.WithTimeouts(ctl, data)}
		if job.Stream {
			w := job.WindowBytes
			if w <= 0 {
				w = gridftp.DefaultWindowSize
			}
			topts = append(topts, gridftp.WithTransferWindow(w))
		}
		if tc, ok := telemetry.TraceFrom(ctx); ok {
			topts = append(topts, gridftp.WithTransferTrace(tc))
		}
		if err := pc.ApplyOptions(topts...); err != nil {
			pc.Discard()
			return nil, nil, err
		}
		return pc.Client, func(err error) {
			if err != nil {
				pc.Discard()
				return
			}
			pc.Release()
		}, nil
	}
	c, err := gridftp.Dial(ep.Addr, opts...)
	if err != nil {
		return nil, nil, err
	}
	if err := c.Login(ep.User, ep.Pass); err != nil {
		c.Close()
		return nil, nil, err
	}
	if tc, ok := telemetry.TraceFrom(ctx); ok {
		// Best-effort: an old server that rejects SITE TRID still moves
		// the bytes, it just doesn't show up in the stitched trace.
		_ = c.ApplyOptions(gridftp.WithTransferTrace(tc))
	}
	return c, func(error) { c.Close() }, nil
}

// probeWatermark asks the destination how many contiguous bytes of the
// job's object it holds, over a channel that is not the failed
// attempt's (which may be poisoned): a pooled checkout when the manager
// has a pool, a fresh dial otherwise. Zero means "no usable partial" —
// probing is best-effort and a failed probe only costs resumption.
func (m *Manager) probeWatermark(ctx context.Context, job Job) int64 {
	c, finish, err := m.checkout(ctx, job.Dst, job, job.dialOpts(ctx))
	if err != nil {
		return 0
	}
	n, err := c.Size(job.DstName)
	finish(err)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// execute traces the job when the manager was built WithTracing —
// minting the trace ID, opening the root "job" span every downstream
// span links under, and flight-recording the job boundaries — then
// runs the retry loop.
func (m *Manager) execute(ctx context.Context, job Job) outcome {
	if !m.tracing {
		return m.executeJob(ctx, job, nil)
	}
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	span := m.hub.Span("job", job.SrcName+" -> "+job.DstName, telemetry.PhaseSetup)
	tc.ParentSID = span.SetTrace(tc.TraceID, "")
	ctx = telemetry.WithTrace(ctx, tc)
	m.hub.Event(tc.TraceID, "job_start", fmt.Sprintf("%s -> %s", job.SrcName, job.DstName))
	out := m.executeJob(ctx, job, span)
	out.trace = tc.TraceID
	done := "ok"
	if out.err != nil {
		done = out.err.Error()
	}
	m.hub.Event(tc.TraceID, "job_done",
		fmt.Sprintf("attempts=%d bytes=%d %s", out.attempts, out.bytes, done))
	span.End(out.err)
	return out
}

// executeJob runs one job with retries; every attempt uses control
// channels the failed previous attempt never touched — its own are
// discarded, not recycled, because a failed transfer may have poisoned
// them (pooled checkouts enforce this via Discard-on-error). Between
// attempts it sleeps a jittered exponential backoff, and — unless the
// job opts out — probes the destination's delivered watermark so the
// next attempt restarts there instead of re-sending bytes that already
// landed. A done context stops further attempts. jobSpan, when the job
// is traced, tracks attempts as "stream" phases and inter-attempt
// backoff as "idle".
func (m *Manager) executeJob(ctx context.Context, job Job, jobSpan *telemetry.Span) outcome {
	var out outcome
	out.circuit = broker.Disposition{Service: broker.ServiceIP}
	resumeFrom := int64(0)
	canResume := !job.NoResume
	for attempt := 1; attempt <= job.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if out.err == nil {
				out.err = err
			}
			return out
		}
		out.attempts = attempt
		if resumeFrom > 0 {
			m.met.resumed.Inc()
			if trace := telemetry.TraceIDFrom(ctx); trace != "" {
				m.hub.Event(trace, "resume",
					fmt.Sprintf("attempt=%d offset=%d", attempt, resumeFrom))
			}
		}
		jobSpan.Phase(telemetry.PhaseStream)
		// A fleet-managed job resolves its source replica per attempt:
		// the dispatcher sees the loads as they are NOW, so a retry after
		// a multi-second failed attempt may land somewhere better than
		// the first placement did (a rebalance).
		ajob := job
		var placement *fleet.Placement
		if m.fleet != nil && job.Src.Addr == "" {
			size := job.SizeHint
			if out.bytes > 0 {
				size = out.bytes
			}
			p, err := m.fleet.Place(ctx, fleet.Request{SizeBytes: size, Previous: out.replica})
			if err != nil {
				if out.err == nil {
					out.err = fmt.Errorf("fleet place: %w", err)
				}
				return out
			}
			placement = p
			ajob.Src.Addr = p.Addr
			out.replica = p.Addr
			if trace := telemetry.TraceIDFrom(ctx); trace != "" {
				m.hub.Event(trace, "fleet_placed",
					fmt.Sprintf("attempt=%d replica=%s fallback=%v", attempt, p.Addr, p.Fallback))
			}
		}
		attemptStart := time.Now()
		at := m.attempt(ctx, ajob, resumeFrom)
		if placement != nil {
			moved := at.moved
			if moved < 0 && at.err == nil && at.bytes > resumeFrom {
				moved = at.bytes - resumeFrom
			}
			placement.Complete(moved, time.Since(attemptStart), at.err)
		}
		out.checksum, out.circuit, out.err = at.checksum, at.circuit, at.err
		out.shapedRate = at.shapedRate
		if at.bytes > 0 {
			out.bytes = at.bytes
		}
		if at.moved >= 0 {
			out.wire += at.moved
		}
		if at.err == nil {
			// Third-party attempts can't see their own wire count; the
			// delta from the restart offset to the object end is exact
			// for a clean attempt (skipped when the size never became
			// known — better to undercount than invent bytes).
			if at.moved < 0 && out.bytes > resumeFrom {
				out.wire += out.bytes - resumeFrom
			}
			out.delivered = out.bytes
			return out
		}
		if attempt == job.MaxAttempts {
			break
		}
		// Work out where the next attempt starts. The watermark probe
		// doubles as wire accounting for third-party attempts: bytes
		// that became durable during the failed attempt were moved by
		// it.
		if resumeFrom > 0 && isRestRejected(at.err) {
			// The endpoint doesn't do restarts; stop asking.
			canResume = false
			resumeFrom = 0
		} else if at.dstEngaged {
			if w := m.probeWatermark(ctx, job); w > resumeFrom && (out.bytes <= 0 || w < out.bytes) {
				if at.moved < 0 {
					out.wire += w - resumeFrom
				}
				if canResume {
					resumeFrom = w
				}
			}
		}
		out.delivered = resumeFrom
		m.met.retries.Inc()
		if trace := telemetry.TraceIDFrom(ctx); trace != "" {
			m.hub.Event(trace, "retry",
				fmt.Sprintf("attempt=%d failed: %v", attempt, at.err))
		}
		jobSpan.Phase(telemetry.PhaseIdle)
		if err := sleepBackoff(ctx, backoffDelay(job.RetryBackoff, job.RetryBackoffMax, attempt)); err != nil {
			return out
		}
	}
	return out
}

// attempt runs one try of the transfer: dial and authenticate both
// endpoints, size the object, let the broker take the circuit decision,
// then move the data — restarting at resumeFrom when a prior attempt
// already delivered a prefix — and verify.
func (m *Manager) attempt(ctx context.Context, job Job, resumeFrom int64) attemptOut {
	out := attemptOut{circuit: broker.Disposition{Service: broker.ServiceIP}, moved: -1}
	opts := job.dialOpts(ctx)
	if m.hub != nil {
		opts = append(opts, gridftp.WithTelemetry(m.hub))
	}
	src, srcFinish, err := m.checkout(ctx, job.Src, job, opts)
	if err != nil {
		out.err = fmt.Errorf("dial src: %w", err)
		return out
	}
	defer func() { srcFinish(out.err) }()
	dst, dstFinish, err := m.checkout(ctx, job.Dst, job, opts)
	if err != nil {
		out.err = fmt.Errorf("dial dst: %w", err)
		return out
	}
	defer func() { dstFinish(out.err) }()
	out.bytes = job.SizeHint
	if out.bytes <= 0 && (m.broker != nil || job.Stream || !job.NoResume) {
		// The broker sizes circuits from bytes, the streaming relay
		// needs the region length, and resume-aware retries clamp
		// destination watermarks against it; a failed probe just means
		// an unhinted decision, not a failed job.
		if n, err := src.Size(job.SrcName); err == nil {
			out.bytes = n
		}
	}
	lease := m.broker.Begin(ctx, job.Src.Addr, job.Dst.Addr, out.bytes)
	out.circuit = lease.Disposition()
	// Resolve the rate this attempt's data plane is shaped to and wire
	// the enforcement in. A VC job is shaped to the broker's reserved
	// rate automatically — the reservation becomes a wire-level fact —
	// unless the job pins its own RateBps; otherwise the class table
	// applies. Streaming jobs pace locally (the STOR leg's bucket
	// backpressures the RETR leg through the pipe) and re-fill the
	// bucket live when a later extension re-books the circuit at a new
	// rate. Third-party jobs never touch the data, so the source server
	// is asked to shape its session instead (SITE RATE).
	out.shapedRate = m.rateFor(job, out.circuit)
	var lim *pacing.Limiter
	if out.shapedRate > 0 {
		if job.Stream {
			b := pacing.NewBucket(out.shapedRate, 0)
			lease.OnRateChange(func(bps float64) {
				if bps > 0 {
					b.SetRate(int64(bps))
				}
			})
			lim = pacing.NewLimiter(b)
		} else if aerr := src.ApplyOptions(gridftp.WithRate(out.shapedRate)); aerr != nil {
			lease.End(0, 0)
			out.err = fmt.Errorf("shape src: %w", aerr)
			return out
		}
	}
	xferStart := time.Now()
	if job.Stream {
		out.moved, out.dstEngaged, err = m.streamRelay(ctx, src, dst, job, resumeFrom, out.bytes, lim)
	} else {
		out.dstEngaged, err = gridftp.ThirdPartyFrom(src, dst, job.SrcName, job.DstName, resumeFrom)
	}
	if err != nil {
		lease.End(0, time.Since(xferStart))
		out.err = fmt.Errorf("transfer: %w", err)
		return out
	}
	lease.End(out.bytes, time.Since(xferStart))
	if !job.Verify {
		return out
	}
	want, err := src.Checksum(job.SrcName)
	if err != nil {
		out.err = fmt.Errorf("src checksum: %w", err)
		return out
	}
	got, err := dst.Checksum(job.DstName)
	if err != nil {
		out.err = fmt.Errorf("dst checksum: %w", err)
		return out
	}
	if want != got {
		out.err = fmt.Errorf("checksum mismatch: src %s, dst %s", want, got)
		return out
	}
	out.checksum = got
	return out
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

// streamRelay moves srcName through this process: a streaming RETR
// feeds an io.Pipe that a streaming STOR drains, both restarting at
// base. Memory is bounded by the client window on the read side and a
// few blocks on the write side. Returns the payload pushed to dst
// (duplicates included), which is exact even on failure, plus whether
// dst accepted the STOR — the precondition for trusting its SIZE as
// this job's watermark on the next attempt.
func (m *Manager) streamRelay(ctx context.Context, src, dst *gridftp.Client, job Job, base, size int64, lim *pacing.Limiter) (int64, bool, error) {
	pr, pw := io.Pipe()
	region := int64(-1)
	if size > 0 {
		region = size - base
	}
	type storDone struct {
		stats gridftp.TransferStats
		err   error
	}
	done := make(chan storDone, 1)
	go func() {
		// The limiter paces only the STOR leg; the pipe's backpressure
		// throttles the RETR leg to the same rate transitively.
		stats, err := dst.StorFromAt(ctx, job.DstName, pr, base, region, gridftp.WithLimiter(lim))
		// Unblock the RETR side if the STOR leg died first.
		pr.CloseWithError(err)
		done <- storDone{stats, err}
	}()
	_, retrErr := src.RetrToAt(ctx, job.SrcName, pw, base)
	// nil closes the pipe cleanly (EOF): the STOR leg finishes its
	// drain; an error propagates to its reader as the source failure.
	pw.CloseWithError(retrErr)
	stor := <-done
	if retrErr != nil {
		return stor.stats.WireBytes, stor.stats.StorAccepted, fmt.Errorf("retr leg: %w", retrErr)
	}
	if stor.err != nil {
		return stor.stats.WireBytes, stor.stats.StorAccepted, fmt.Errorf("stor leg: %w", stor.err)
	}
	return stor.stats.WireBytes, stor.stats.StorAccepted, nil
}
