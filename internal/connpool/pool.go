// Package connpool pools authenticated GridFTP control channels by
// endpoint, so managed-transfer workers pay the dial + USER/PASS +
// TYPE/MODE handshake once per connection lifetime instead of once per
// job. Checkout mirrors the pooled-connection discipline of
// internal/vc: a reused channel is health-checked with NOOP and, when
// it proves stale, replaced by exactly one fresh dial — the caller
// never sees the dead connection. A background keepalive NOOPs idle
// channels so the server's IdleTimeout cannot reap them between jobs,
// and a max lifetime bounds how long any channel is reused regardless.
package connpool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/telemetry"
)

// ErrClosed: the pool has been closed; no further checkouts.
var ErrClosed = errors.New("connpool: pool closed")

// Config configures a Pool.
type Config struct {
	// MaxIdlePerEndpoint bounds the idle channels kept per endpoint key
	// (default 2); surplus releases close instead of parking.
	MaxIdlePerEndpoint int
	// MaxLifetime bounds how long a channel may be reused after its dial
	// (default 5m; negative disables): long-lived control channels drift
	// — half-open NATs, server restarts — so the pool retires them on a
	// clock, not only on failure.
	MaxLifetime time.Duration
	// KeepAlive is the idle-channel NOOP interval (default 30s; negative
	// disables). Keep it below the servers' IdleTimeout or parked
	// channels get reaped and every checkout turns into a miss.
	KeepAlive time.Duration
	// Opts supplies gridftp dial options per endpoint address (timeouts,
	// telemetry, fault-injection dialers).
	Opts func(addr string) []gridftp.Option
	// Telemetry, when set, receives pool hit/miss/eviction counters and
	// idle/leased gauges.
	Telemetry *telemetry.Hub
}

// key identifies a pool bucket: same server, same credentials.
type key struct{ addr, user, pass string }

// pooled is one parked control channel.
type pooled struct {
	cli  *gridftp.Client
	born time.Time
}

// Pool is an endpoint-keyed pool of authenticated control channels.
// Checked-out connections are exclusive (a GridFTP control channel
// multiplexes one transfer at a time); the pool itself is safe for
// concurrent use.
type Pool struct {
	cfg Config
	met poolMetrics

	// The census counters live on the pool itself, not only on the
	// optional telemetry instruments, so Stats works hub or no hub.
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	mu     sync.Mutex
	idle   map[key][]pooled
	leased int
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

type poolMetrics struct {
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	idle      *telemetry.Gauge
	leased    *telemetry.Gauge
}

// Stats is a point-in-time pool census, for leak assertions: when all
// work is done, Leased must be zero and Idle bounded by the config.
type Stats struct {
	Idle      int
	Leased    int
	Hits      int64
	Misses    int64
	Evictions int64
}

// New starts a pool. Callers must Close it.
func New(cfg Config) *Pool {
	if cfg.MaxIdlePerEndpoint == 0 {
		cfg.MaxIdlePerEndpoint = 2
	}
	switch {
	case cfg.MaxLifetime == 0:
		cfg.MaxLifetime = 5 * time.Minute
	case cfg.MaxLifetime < 0:
		cfg.MaxLifetime = 0
	}
	switch {
	case cfg.KeepAlive == 0:
		cfg.KeepAlive = 30 * time.Second
	case cfg.KeepAlive < 0:
		cfg.KeepAlive = 0
	}
	p := &Pool{
		cfg:  cfg,
		idle: make(map[key][]pooled),
		stop: make(chan struct{}),
	}
	if hub := cfg.Telemetry; hub != nil {
		p.met = poolMetrics{
			hits: hub.Counter("gridftp_pool_hits_total",
				"Checkouts served by a pooled control channel."),
			misses: hub.Counter("gridftp_pool_misses_total",
				"Checkouts that dialed fresh (empty bucket, expired, or stale channel)."),
			evictions: hub.Counter("gridftp_pool_evictions_total",
				"Pooled control channels retired (expired, stale, surplus, or pool close)."),
			idle: hub.Gauge("gridftp_pool_idle",
				"Control channels parked in the pool."),
			leased: hub.Gauge("gridftp_pool_leased",
				"Control channels checked out to jobs."),
		}
	}
	if p.cfg.KeepAlive > 0 {
		p.wg.Add(1)
		go p.keepAliveLoop()
	}
	return p
}

// Conn is a checked-out control channel. Exactly one of Release or
// Discard must be called when the job is done with it; both are
// idempotent.
type Conn struct {
	*gridftp.Client
	pool *Pool
	key  key
	born time.Time
	// done flips exactly once, by CAS: Release and Discard may race on
	// the same Conn (worker teardown vs. job completion) and only one of
	// them may run the lifecycle, or the leased census double-decrements.
	done atomic.Bool
}

// Get checks out an authenticated control channel to addr: a parked
// channel when a healthy one exists, a fresh dial otherwise. Reused
// channels are verified end to end with NOOP first; a stale one is
// closed and replaced by a single fresh dial, so callers never receive
// a dead connection and never pay more than one redial.
func (p *Pool) Get(ctx context.Context, addr, user, pass string) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	k := key{addr, user, pass}
	trace := telemetry.TraceIDFrom(ctx)
	if pc, ok := p.popIdle(k); ok {
		if err := pc.cli.Noop(); err == nil {
			p.hits.Add(1)
			p.met.hits.Inc()
			p.cfg.Telemetry.Event(trace, "pool_hit", addr)
			p.lease(1)
			return &Conn{Client: pc.cli, pool: p, key: k, born: pc.born}, nil
		}
		// Stale: retire it and fall through to the one fresh dial.
		p.evict(pc.cli)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.misses.Add(1)
	p.met.misses.Inc()
	p.cfg.Telemetry.Event(trace, "pool_miss", addr)
	cli, err := p.dial(k)
	if err != nil {
		return nil, err
	}
	p.lease(1)
	return &Conn{Client: cli, pool: p, key: k, born: time.Now()}, nil
}

// dial opens and authenticates a fresh control channel for k.
func (p *Pool) dial(k key) (*gridftp.Client, error) {
	var opts []gridftp.Option
	if p.cfg.Opts != nil {
		opts = p.cfg.Opts(k.addr)
	}
	cli, err := gridftp.Dial(k.addr, opts...)
	if err != nil {
		return nil, err
	}
	if err := cli.Login(k.user, k.pass); err != nil {
		cli.Close()
		return nil, err
	}
	return cli, nil
}

// popIdle takes the most recently parked channel for k, skipping (and
// retiring) expired ones.
func (p *Pool) popIdle(k key) (pooled, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		bucket := p.idle[k]
		n := len(bucket)
		if p.closed || n == 0 {
			return pooled{}, false
		}
		pc := bucket[n-1]
		p.idle[k] = bucket[:n-1]
		p.met.idle.Dec()
		if p.expired(pc.born) {
			// Closing under the lock is cheap: QUIT rides the dying
			// connection's buffers and Close does not wait for a reply.
			p.evict(pc.cli)
			continue
		}
		return pc, true
	}
}

func (p *Pool) expired(born time.Time) bool {
	return p.cfg.MaxLifetime > 0 && time.Since(born) > p.cfg.MaxLifetime
}

func (p *Pool) lease(delta int) {
	p.mu.Lock()
	p.leased += delta
	p.mu.Unlock()
	p.met.leased.Add(int64(delta))
}

// evict retires one channel: close it and count the eviction.
func (p *Pool) evict(cli *gridftp.Client) {
	cli.Close()
	p.evictions.Add(1)
	p.met.evictions.Inc()
}

// Release parks the channel for reuse. Channels that are desynced,
// expired, or surplus to the idle bound are closed instead — a job that
// failed mid-transfer should Discard, but Release still refuses to park
// a channel the client itself marked unusable.
func (c *Conn) Release() {
	if c == nil || !c.done.CompareAndSwap(false, true) {
		return
	}
	p := c.pool
	p.lease(-1)
	// Drop any trace binding and rate shaping before parking: the next
	// checkout is a different job and must not inherit this one's trace
	// ID, pacing bucket, or server-side rate. Clearing is client-side
	// only — SITE RATE 0 goes on the wire only if this job actually
	// engaged server-side shaping (gridftp tracks that), so unshaped
	// channels stay byte-identical. If the clear itself fails — the
	// server rejects SITE RATE 0 without the channel tripping Desynced —
	// the parked channel would keep the previous job's server-side cap
	// and the next checkout would inherit it, so evict instead.
	if err := c.Client.ApplyOptions(
		gridftp.WithTrace(telemetry.TraceContext{}),
		gridftp.WithRate(0),
		gridftp.WithLimiter(nil),
	); err != nil {
		p.evict(c.Client)
		return
	}
	if c.Client.Desynced() || p.expired(c.born) {
		p.evict(c.Client)
		return
	}
	p.mu.Lock()
	if p.closed || len(p.idle[c.key]) >= p.cfg.MaxIdlePerEndpoint {
		p.mu.Unlock()
		p.evict(c.Client)
		return
	}
	p.idle[c.key] = append(p.idle[c.key], pooled{cli: c.Client, born: c.born})
	p.mu.Unlock()
	p.met.idle.Inc()
}

// Discard closes the channel instead of parking it: the job saw a
// failure and the channel's state cannot be trusted.
func (c *Conn) Discard() {
	if c == nil || !c.done.CompareAndSwap(false, true) {
		return
	}
	c.pool.lease(-1)
	c.pool.evict(c.Client)
}

// keepAliveLoop NOOPs every parked channel each interval so server idle
// timers never fire on pooled connections. A channel is taken off the
// bucket while probed (clients are single-user); failures retire it.
func (p *Pool) keepAliveLoop() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.KeepAlive)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.sweep()
		}
	}
}

// sweep probes every idle channel once, returning survivors to their
// buckets. Checkouts racing the sweep simply miss and dial fresh.
func (p *Pool) sweep() {
	p.mu.Lock()
	taken := p.idle
	p.idle = make(map[key][]pooled, len(taken))
	p.mu.Unlock()
	for k, bucket := range taken {
		var kept []pooled
		for _, pc := range bucket {
			p.met.idle.Dec()
			if p.expired(pc.born) || pc.cli.Noop() != nil {
				p.evict(pc.cli)
				continue
			}
			kept = append(kept, pc)
		}
		if len(kept) == 0 {
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			for _, pc := range kept {
				p.evict(pc.cli)
			}
			continue
		}
		// Releases that raced the probe window have refilled the bucket;
		// reinsert only up to the idle bound and retire the surplus, or
		// the bucket grows past MaxIdlePerEndpoint.
		room := p.cfg.MaxIdlePerEndpoint - len(p.idle[k])
		if room < 0 {
			room = 0
		}
		if room > len(kept) {
			room = len(kept)
		}
		p.idle[k] = append(p.idle[k], kept[:room]...)
		p.mu.Unlock()
		p.met.idle.Add(int64(room))
		for _, pc := range kept[room:] {
			p.evict(pc.cli)
		}
	}
}

// Stats returns the pool census.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := Stats{
		Leased:    p.leased,
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
	}
	for _, bucket := range p.idle {
		s.Idle += len(bucket)
	}
	return s
}

// Close stops the keepalive and closes every idle channel. Checked-out
// channels are closed as they come back via Release/Discard.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	taken := p.idle
	p.idle = make(map[key][]pooled)
	p.mu.Unlock()
	close(p.stop)
	p.wg.Wait()
	for _, bucket := range taken {
		for _, pc := range bucket {
			p.met.idle.Dec()
			p.evict(pc.cli)
		}
	}
}
