// Package broker is the session-aware circuit broker of the hybrid
// VC/IP control plane: it watches a transfer manager's job stream and
// runs core.SessionPolicy — the paper's gap-g sessions and 10x-setup
// amortization rule, the same rule internal/sessions and
// core.FeasibilityConfig apply to usage logs — on each endpoint pair,
// performing the OSCARS calls, timers and telemetry the policy asks for.
//
// Lifecycle per session: the first amortizing job triggers a Reserve
// sized from the pair's recently observed throughput; while the session
// stays hot, later jobs extend the hold with Modify; once it has been
// idle longer than g, the circuit is cancelled. Admission rejects and
// daemon outages degrade the session to IP without failing any
// transfer, and every decision is counted on the telemetry hub.
//
// The broker never blocks a transfer on the control plane for more
// than Config.DecisionTimeout: a dead daemon costs one bounded RPC,
// after which the session is pinned to IP and the next session retries
// through the client's auto-reconnect.
package broker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gftpvc/internal/core"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc"
)

// Service is the transport service a job was dispatched onto.
type Service string

const (
	// ServiceVC: the job ran inside a reserved rate-guaranteed circuit.
	ServiceVC Service = "vc"
	// ServiceIP: the job ran over best-effort IP routing.
	ServiceIP Service = "ip"
)

// Disposition records how one job was dispatched; the transfer manager
// copies it into the job's Result so operators can see VC vs IP per
// transfer.
type Disposition struct {
	// Service is the dispatch verdict for this job.
	Service Service
	// CircuitID names the reserved circuit when Service is ServiceVC.
	CircuitID int64
	// SetupWait is the control-plane time this job spent waiting on
	// reservation RPCs (zero when the session already held a circuit).
	SetupWait time.Duration
	// RateBps is the circuit's reserved rate in bits per second when
	// Service is ServiceVC (zero otherwise). The enforcement layer
	// (xferman's pacing) shapes the job's data plane to it, so the
	// reservation is a wire-level fact rather than an advisory booking.
	RateBps float64
	// Fallback explains an IP verdict that wanted a circuit: an
	// admission reject, a dead daemon, or a mid-session circuit loss.
	// Empty when the session was simply too short to amortize setup.
	Fallback string
}

// RouteMapper resolves transfer endpoints (host:port dial addresses)
// to the reservation topology's node names. Returning ok=false keeps
// the pair on IP service.
type RouteMapper func(srcAddr, dstAddr string) (srcNode, dstNode string, ok bool)

// StaticRoute maps every endpoint pair onto one fixed topology route —
// the paper's deployment shape, where a broker fronts one DTN pair.
func StaticRoute(srcNode, dstNode string) RouteMapper {
	return func(_, _ string) (string, string, bool) {
		return srcNode, dstNode, true
	}
}

// Config parameterizes the broker.
type Config struct {
	// Gap is the paper's g parameter: a session closes (and its circuit
	// is cancelled) once no job has been active for longer than this.
	// Required.
	Gap time.Duration
	// SetupDelay is the assumed VC provisioning latency the session
	// must amortize (default 1 minute, the deployed OSCARS figure).
	SetupDelay time.Duration
	// OverheadFactor is how many times the setup delay a session's
	// predicted duration must reach before a circuit pays off (default
	// 10, the paper's "one-tenth or less" rule).
	OverheadFactor float64
	// ReferenceThroughputBps seeds the throughput estimate for a pair
	// with no observed transfers yet (default 800 Mbps, a Q3-like
	// reference rate). Observed throughput replaces it as jobs finish.
	ReferenceThroughputBps float64
	// MinRateBps / MaxRateBps clamp the requested circuit rate (default
	// 100 Mbps floor, no ceiling).
	MinRateBps float64
	MaxRateBps float64
	// HoldSlack extends each circuit hold beyond the predicted need, so
	// prediction error does not expire the booking mid-session (default
	// 30s; the hold also always covers one Gap).
	HoldSlack time.Duration
	// DecisionTimeout bounds every control-plane RPC a job dispatch can
	// wait on (default 3s). A caller context tighter than this wins.
	DecisionTimeout time.Duration
	// Route maps endpoint addresses to topology nodes; nil keeps every
	// job on IP service.
	Route RouteMapper
	// Telemetry, when set, counts decisions (reserved, fallback,
	// extended, cancelled, jobs by service) and records the
	// amortization-ratio histogram.
	Telemetry *telemetry.Hub
}

func (c *Config) applyDefaults() error {
	if c.Gap <= 0 {
		return errors.New("broker: Gap must be positive")
	}
	if c.SetupDelay == 0 {
		c.SetupDelay = time.Minute
	}
	if c.OverheadFactor == 0 {
		c.OverheadFactor = 10
	}
	if c.ReferenceThroughputBps == 0 {
		c.ReferenceThroughputBps = 800e6
	}
	if c.MinRateBps == 0 {
		c.MinRateBps = 100e6
	}
	if c.HoldSlack == 0 {
		c.HoldSlack = 30 * time.Second
	}
	if c.DecisionTimeout == 0 {
		c.DecisionTimeout = 3 * time.Second
	}
	if c.SetupDelay < 0 || c.OverheadFactor < 0 || c.ReferenceThroughputBps < 0 ||
		c.MinRateBps < 0 || c.MaxRateBps < 0 || c.HoldSlack < 0 || c.DecisionTimeout < 0 {
		return errors.New("broker: negative config value")
	}
	return nil
}

// AmortizationBuckets are the histogram bounds for session duration
// over setup delay: ratios at or above the overhead factor mean the
// circuit decision paid off by the paper's rule.
var AmortizationBuckets = []float64{0.5, 1, 2, 5, 10, 20, 50, 100}

// pairKey identifies one session stream.
type pairKey struct{ src, dst string }

// session is one live run of back-to-back jobs between a pair.
type session struct {
	mu sync.Mutex

	key              pairKey
	srcNode, dstNode string
	started          time.Time
	pol              core.SessionPolicy

	circuit *Disposition // the held circuit's verdict (no SetupWait)
	closed  bool

	// watchers are the in-flight leases that asked to hear about circuit
	// re-rates (Lease.OnRateChange), so an extension's new rate re-fills
	// their live pacing buckets rather than waiting for the next attempt.
	watchers map[*Lease]func(rateBps float64)

	timer *time.Timer
}

// Broker watches a job stream and brokers circuits per session.
type Broker struct {
	client *vc.Client
	cfg    Config
	policy core.SessionPolicy // a fresh session's policy
	met    metrics

	mu       sync.Mutex
	sessions map[pairKey]*session
	rates    map[pairKey]float64 // observed EWMA throughput, survives sessions
	closed   bool
	releases sync.WaitGroup // circuit cancels still in flight

	clockMu     sync.Mutex
	clockSynced time.Time // local time of last service-clock sync
	clockAt     float64   // service seconds at that sync
}

type metrics struct {
	reserved  *telemetry.Counter
	extended  *telemetry.Counter
	cancelled *telemetry.Counter
	amort     *telemetry.Histogram
}

// New builds a broker over a dialed reservation client. The broker does
// not own the client; close the broker first, then the client.
func New(client *vc.Client, cfg Config) (*Broker, error) {
	if client == nil {
		return nil, errors.New("broker: nil client")
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	b := &Broker{
		client: client,
		cfg:    cfg,
		policy: core.SessionPolicy{
			Feasibility: core.FeasibilityConfig{SetupDelay: cfg.SetupDelay,
				OverheadFactor: cfg.OverheadFactor, ReferenceThroughputBps: cfg.ReferenceThroughputBps},
			Gap: cfg.Gap, HoldSlack: cfg.HoldSlack,
		},
		sessions: make(map[pairKey]*session),
		rates:    make(map[pairKey]float64),
	}
	if hub := cfg.Telemetry; hub != nil {
		b.met = metrics{
			reserved: hub.Counter("vc_broker_reserved_total",
				"Sessions dispatched onto a reserved circuit."),
			extended: hub.Counter("vc_broker_extended_total",
				"Circuit holds extended for sessions that stayed hot."),
			cancelled: hub.Counter("vc_broker_cancelled_total",
				"Circuits cancelled at session close."),
			amort: hub.Histogram("vc_broker_amortization_ratio",
				"Session wall-clock duration over VC setup delay, per circuit session.",
				AmortizationBuckets),
		}
	}
	return b, nil
}

// serviceNow returns the daemon's service clock, re-syncing over the
// wire at most every few minutes.
func (b *Broker) serviceNow(ctx context.Context) (float64, error) {
	b.clockMu.Lock()
	defer b.clockMu.Unlock()
	if !b.clockSynced.IsZero() && time.Since(b.clockSynced) < 5*time.Minute {
		return b.clockAt + time.Since(b.clockSynced).Seconds(), nil
	}
	now, err := b.client.Now(ctx)
	if err != nil {
		return 0, err
	}
	b.clockSynced = time.Now()
	b.clockAt = now
	return now, nil
}

// rateFor returns the circuit sizing rate for a pair: the observed
// EWMA throughput when transfers have completed, else the configured
// reference, clamped to [MinRateBps, MaxRateBps].
func (b *Broker) rateFor(key pairKey) float64 {
	b.mu.Lock()
	rate := b.rates[key]
	b.mu.Unlock()
	if rate <= 0 {
		rate = b.cfg.ReferenceThroughputBps
	}
	if rate < b.cfg.MinRateBps {
		rate = b.cfg.MinRateBps
	}
	if b.cfg.MaxRateBps > 0 && rate > b.cfg.MaxRateBps {
		rate = b.cfg.MaxRateBps
	}
	return rate
}

// observe folds one finished job's throughput into the pair's EWMA.
func (b *Broker) observe(key pairKey, bytes int64, d time.Duration) {
	if bytes <= 0 || d <= 0 {
		return
	}
	inst := float64(bytes) * 8 / d.Seconds()
	b.mu.Lock()
	if old := b.rates[key]; old > 0 {
		b.rates[key] = 0.7*old + 0.3*inst
	} else {
		b.rates[key] = inst
	}
	b.mu.Unlock()
}

// lookup returns the live session for a pair, opening one when there is
// none or the last one has expired. An expired session's circuit is
// cancelled off the caller's path: a Begin never waits on a Cancel.
func (b *Broker) lookup(key pairKey, srcNode, dstNode string, routed bool) *session {
	for {
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return nil
		}
		s := b.sessions[key]
		if s == nil {
			s = &session{key: key, srcNode: srcNode, dstNode: dstNode, started: time.Now(), pol: b.policy}
			if !routed {
				s.pol.PinIP("") // no topology route: plain best-effort, no fallback story
			}
			b.sessions[key] = s
			b.mu.Unlock()
			return s
		}
		b.mu.Unlock()
		s.mu.Lock()
		if !s.closed && !s.pol.Expired(time.Now()) {
			s.mu.Unlock()
			return s
		}
		release := b.closeLocked(s)
		s.mu.Unlock()
		b.evict(key, s)
		go release()
	}
}

// evict removes a specific session pointer from the map (a newer
// session under the same key is left alone).
func (b *Broker) evict(key pairKey, s *session) {
	b.mu.Lock()
	if b.sessions[key] == s {
		delete(b.sessions, key)
	}
	b.mu.Unlock()
}

// Lease tracks one job's participation in a session. A nil lease (no
// broker, or broker closed) is inert: Disposition reports IP service
// and End is a no-op, so callers use it unconditionally.
type Lease struct {
	b    *Broker
	s    *session
	disp Disposition
	once sync.Once
}

// Disposition reports how the job was dispatched.
func (l *Lease) Disposition() Disposition {
	if l == nil {
		return Disposition{Service: ServiceIP}
	}
	return l.disp
}

// OnRateChange registers fn to be called (each time on a fresh
// goroutine) when a later extension re-books this lease's circuit at a
// different rate — the live half of the Modify path, letting an
// in-flight job re-fill its pacing bucket instead of finishing at the
// stale rate. No-op on nil or IP-disposition leases; the registration
// is dropped when the lease Ends.
func (l *Lease) OnRateChange(fn func(rateBps float64)) {
	if l == nil || fn == nil || l.disp.Service != ServiceVC {
		return
	}
	s := l.s
	s.mu.Lock()
	if s.watchers == nil {
		s.watchers = make(map[*Lease]func(float64))
	}
	s.watchers[l] = fn
	s.mu.Unlock()
}

// End marks the job finished, feeding the observed byte count and
// duration into the pair's throughput estimate and the session's gap
// clock. Safe to call at most once; extra calls are ignored.
func (l *Lease) End(bytes int64, d time.Duration) {
	if l == nil {
		return
	}
	l.once.Do(func() {
		l.b.observe(l.s.key, bytes, d)
		s := l.s
		s.mu.Lock()
		delete(s.watchers, l)
		s.pol.End(time.Now(), bytes)
		if !s.closed {
			l.b.armCloseTimer(s)
		}
		s.mu.Unlock()
	})
}

// Begin dispatches one job: it joins (or opens) the pair's session,
// takes the circuit decision, and returns the lease the caller must
// End when the job finishes. Begin never fails the job — on any
// control-plane problem the disposition degrades to best-effort IP.
// ctx bounds the decision's reservation RPCs (together with
// Config.DecisionTimeout).
func (b *Broker) Begin(ctx context.Context, srcAddr, dstAddr string, sizeHint int64) *Lease {
	if b == nil {
		return nil
	}
	key := pairKey{srcAddr, dstAddr}
	var srcNode, dstNode string
	routed := false
	if b.cfg.Route != nil {
		srcNode, dstNode, routed = b.cfg.Route(srcAddr, dstAddr)
	}
	s := b.lookup(key, srcNode, dstNode, routed)
	if s == nil { // broker closed
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	disp := b.decideLocked(ctx, s, sizeHint)
	b.recordDecision(ctx, disp, routed)
	return &Lease{b: b, s: s, disp: disp}
}

// recordDecision counts the dispatch verdict by service and lands it in
// the flight recorder, tagged with the transfer trace when the job
// context carries one.
func (b *Broker) recordDecision(ctx context.Context, disp Disposition, routed bool) {
	hub := b.cfg.Telemetry
	if hub == nil {
		return
	}
	hub.Counter("vc_broker_jobs_total", "Jobs dispatched, by transport service.",
		telemetry.L("service", string(disp.Service))).Inc()
	trace := ""
	if ctx != nil {
		trace = telemetry.TraceIDFrom(ctx)
	}
	switch {
	case disp.Service == ServiceVC:
		hub.Event(trace, "broker_reserved",
			fmt.Sprintf("circuit=%d setup_wait=%s", disp.CircuitID, disp.SetupWait))
	case disp.Fallback != "":
		hub.Event(trace, "broker_fallback", disp.Fallback)
	case !routed:
		hub.Event(trace, "broker_ip", "no topology route")
	default:
		hub.Event(trace, "broker_ip", "session below amortization threshold")
	}
}

// decideLocked runs the session policy for one job and makes the
// reservation call it asks for. Called with s.mu held.
func (b *Broker) decideLocked(ctx context.Context, s *session, sizeHint int64) Disposition {
	// One clamped rate snapshot drives the whole decision — threshold,
	// hold and reserved rate — so a concurrent observe() moving the EWMA
	// can never size a circuit at one rate but hold it for another.
	rate := b.rateFor(s.key)
	now := time.Now()
	act := s.pol.Start(now, sizeHint, rate)
	switch act.Kind {
	case core.ActStayIP:
		return Disposition{Service: ServiceIP, Fallback: act.Reason}
	case core.ActRide:
		return *s.circuit
	}
	cctx, cancel := context.WithTimeout(ctx, b.cfg.DecisionTimeout)
	defer cancel()
	svcNow, err := b.serviceNow(cctx)
	// svc maps a policy instant onto the daemon's clock, a second late
	// so a booking never starts in the daemon's past.
	svc := func(t time.Time) float64 { return svcNow + 1 + t.Sub(now).Seconds() }
	if act.Kind == core.ActReserve {
		var res *vc.Reservation
		began := time.Now()
		if err == nil {
			res, err = b.client.Reserve(cctx, vc.ReserveRequest{
				Src: s.srcNode, Dst: s.dstNode, RateBps: rate, Start: svc(now), End: svc(act.End),
			})
		}
		switch {
		case err == nil:
			s.pol.Booked(act.End)
			s.circuit = &Disposition{Service: ServiceVC, CircuitID: res.ID, RateBps: rate}
			b.met.reserved.Inc()
			first := *s.circuit
			first.SetupWait = time.Since(began)
			return first
		case errors.Is(err, vc.ErrNoPath), errors.Is(err, vc.ErrRejected):
			return b.pinLocked(s, "rejected", "admission rejected: "+err.Error())
		default:
			return b.pinLocked(s, "unavailable", "reservation service unavailable: "+err.Error())
		}
	}
	if err == nil {
		_, err = b.client.Modify(cctx, vc.ModifyRequest{
			ID: s.circuit.CircuitID, RateBps: rate, Start: svc(now), End: svc(act.End),
		})
	}
	switch {
	case err == nil:
		s.pol.Booked(act.End)
		b.met.extended.Inc()
		if rate != s.circuit.RateBps {
			// Re-rate in-flight jobs. Fired on fresh goroutines: s.mu is
			// held here and a watcher may call back into the lease.
			for _, fn := range s.watchers {
				go fn(rate)
			}
		}
		s.circuit.RateBps = rate
	case errors.Is(err, vc.ErrRejected):
		// Extension refused but the old booking survives server-side:
		// ride the circuit until it expires.
	case errors.Is(err, vc.ErrUnknownCircuit):
		return b.pinLocked(s, "lost", "circuit lost: "+err.Error())
	default:
		return b.pinLocked(s, "lost", "reservation service unavailable: "+err.Error())
	}
	return *s.circuit
}

// pinLocked degrades the session to IP for the rest of its life, counts
// the fallback by label, and returns the job's IP verdict. Called with
// s.mu held.
func (b *Broker) pinLocked(s *session, label, reason string) Disposition {
	s.circuit = nil
	s.pol.PinIP(reason)
	if hub := b.cfg.Telemetry; hub != nil {
		hub.Counter("vc_broker_fallback_total",
			"Sessions that wanted a circuit but fell back to best-effort IP, by reason.",
			telemetry.L("reason", label)).Inc()
	}
	return Disposition{Service: ServiceIP, Fallback: reason}
}

// armCloseTimer schedules the gap-expiry close, re-armed by every job
// end; the last one to fire after the session expires closes it.
// Called with s.mu held.
func (b *Broker) armCloseTimer(s *session) {
	if s.timer != nil {
		s.timer.Stop()
	}
	s.timer = time.AfterFunc(b.cfg.Gap+50*time.Millisecond, func() {
		s.mu.Lock()
		if s.closed || !s.pol.Expired(time.Now()) {
			s.mu.Unlock()
			return
		}
		release := b.closeLocked(s)
		s.mu.Unlock()
		release()
		b.evict(s.key, s) // after the cancel: Sessions() == 0 implies it landed
	})
}

// closeLocked marks the session closed and returns the release of its
// circuit, to run once s.mu is dropped; Close waits for every release.
// Called with s.mu held.
func (b *Broker) closeLocked(s *session) (release func()) {
	if s.closed {
		return func() {}
	}
	s.closed = true
	if s.timer != nil {
		s.timer.Stop()
	}
	act := s.pol.Close()
	if act.Kind != core.ActCancel {
		return func() {}
	}
	id := s.circuit.CircuitID
	s.circuit = nil
	wall := max(act.End.Sub(s.started), 0)
	// Counted while the session is still open, so before Close's Wait:
	// Close closes every session it finds before it waits.
	b.releases.Add(1)
	return func() {
		defer b.releases.Done()
		ctx, cancel := context.WithTimeout(context.Background(), b.cfg.DecisionTimeout)
		defer cancel()
		// Best effort: a dead daemon or restarted ledger no longer holds
		// the circuit anyway.
		if err := b.client.Cancel(ctx, id); err == nil {
			b.met.cancelled.Inc()
		}
		b.met.amort.Observe(wall.Seconds() / b.cfg.SetupDelay.Seconds())
	}
}

// Sessions reports the number of live sessions (for tests and
// introspection).
func (b *Broker) Sessions() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.sessions)
}

// Close cancels every held circuit and stops the broker. Leases issued
// earlier become inert; further Begin calls return nil leases.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	live := make([]*session, 0, len(b.sessions))
	for _, s := range b.sessions {
		live = append(live, s)
	}
	b.sessions = nil
	b.mu.Unlock()
	for _, s := range live {
		s.mu.Lock()
		release := b.closeLocked(s)
		s.mu.Unlock()
		release()
	}
	b.releases.Wait()
}

// String summarizes the broker configuration (for logs).
func (b *Broker) String() string {
	return fmt.Sprintf("broker(gap=%s setup=%s factor=%.0f)",
		b.cfg.Gap, b.cfg.SetupDelay, b.cfg.OverheadFactor)
}
