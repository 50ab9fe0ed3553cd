// Package connpool pools authenticated GridFTP control channels by
// endpoint, so managed-transfer workers pay the dial + USER/PASS +
// TYPE/MODE handshake once per connection lifetime instead of once per
// job. GetPair leases a src/dst pair: a pair released together parks as
// mates and is handed out together again, so the data channel their
// servers kept (gridftp.ThirdPartyFrom) carries the next job too.
// Checkout checks a parked channel with no round trip
// (gridftp.Client.CheckIdle), which catches a server that closed, reset
// or spoke out of turn; a stale channel is replaced by exactly one fresh
// dial. Only the keepalive's NOOPs, which also keep server idle timers
// from firing, and the control timeout catch a silent half-open path. A
// max lifetime bounds how long any channel is reused regardless.
package connpool

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// pooled is one parked control channel and the mate GetPair leased it beside.
type pooled struct {
	cli  *gridftp.Client
	mate *gridftp.Client
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
	mate *gridftp.Client // parked with it on Release; see pooled
	// done flips exactly once, by CAS: Release and Discard may race on
	// the same Conn (worker teardown vs. job completion) and only one of
	// them may run the lifecycle, or the leased census double-decrements.
	done atomic.Bool
}

// Get checks out an authenticated control channel to addr: a parked
// channel when one passes the liveness check, a fresh dial otherwise. A
// stale channel is closed and replaced by a single fresh dial, so callers
// never receive a dead connection and never pay more than one redial.
// Taking a channel that was parked as one of a pair breaks the pair.
func (p *Pool) Get(ctx context.Context, addr, user, pass string) (*Conn, error) {
	if err := p.ready(ctx); err != nil {
		return nil, err
	}
	k := key{addr, user, pass}
	return p.checkout(ctx, k, p.popIdle(k))
}

// GetPair checks out a src and a dst channel as Get does each, but
// prefers a parked src whose mate, the dst it last ran with, is parked
// too: the pair whose servers kept a data channel between them.
// Releasing both parks them as mates again. On error neither is leased,
// and the error names the side that failed.
func (p *Pool) GetPair(ctx context.Context,
	srcAddr, srcUser, srcPass, dstAddr, dstUser, dstPass string) (src, dst *Conn, err error) {
	if err := p.ready(ctx); err != nil {
		return nil, nil, err
	}
	sk := key{srcAddr, srcUser, srcPass}
	dk := key{dstAddr, dstUser, dstPass}
	ps, pd := p.popPair(sk, dk)
	if src, err = p.checkout(ctx, sk, ps); err != nil {
		if pd.cli != nil {
			p.park(dk, pd)
		}
		return nil, nil, fmt.Errorf("src %s: %w", srcAddr, err)
	}
	if dst, err = p.checkout(ctx, dk, pd); err != nil {
		src.Release()
		return nil, nil, fmt.Errorf("dst %s: %w", dstAddr, err)
	}
	src.mate, dst.mate = dst.Client, src.Client
	return src, dst, nil
}

// ready refuses a checkout on a closed pool or a done context.
func (p *Pool) ready(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return ctx.Err()
}

// checkout leases pc if it passes CheckIdle. Otherwise it retires pc
// and leases one fresh dial; a zero pc is a plain miss.
func (p *Pool) checkout(ctx context.Context, k key, pc pooled) (*Conn, error) {
	trace := telemetry.TraceIDFrom(ctx)
	if pc.cli != nil {
		if pc.cli.CheckIdle() == nil {
			p.hits.Add(1)
			p.met.hits.Inc()
			p.cfg.Telemetry.Event(trace, "pool_hit", k.addr)
			p.lease(1)
			return &Conn{Client: pc.cli, pool: p, key: k, born: pc.born}, nil
		}
		p.evict(pc.cli)
	}
	p.misses.Add(1)
	p.met.misses.Inc()
	p.cfg.Telemetry.Event(trace, "pool_miss", k.addr)
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

// popIdle takes the most recently parked live channel for k, or a zero
// pooled when there is none.
func (p *Pool) popIdle(k key) pooled {
	p.mu.Lock()
	dead := p.reap(k)
	pc := p.take(k, len(p.idle[k])-1)
	p.mu.Unlock()
	p.retire(dead)
	return pc
}

// popPair takes the most recently parked live src for sk whose mate is
// parked for dk, and that mate; failing that, each side as popIdle.
func (p *Pool) popPair(sk, dk key) (src, dst pooled) {
	p.mu.Lock()
	dead := append(p.reap(sk), p.reap(dk)...)
	i := len(p.idle[sk]) - 1
	for m := i; m >= 0; m-- {
		if p.mateOf(dk, p.idle[sk][m]) >= 0 {
			i = m
			break
		}
	}
	src = p.take(sk, i)
	j := p.mateOf(dk, src)
	if j < 0 {
		j = len(p.idle[dk]) - 1
	}
	dst = p.take(dk, j)
	p.mu.Unlock()
	p.retire(dead)
	return src, dst
}

// mateOf returns the index of pc's mate in k's bucket, if it is parked
// there naming pc back, or -1. Callers hold p.mu.
func (p *Pool) mateOf(k key, pc pooled) int {
	return slices.IndexFunc(p.idle[k], func(d pooled) bool {
		return d.cli == pc.mate && d.mate == pc.cli
	})
}

// take removes and returns the channel at index i of k's bucket, or a
// zero pooled when i < 0. Callers hold p.mu.
func (p *Pool) take(k key, i int) (pc pooled) {
	if i < 0 {
		return pc
	}
	pc = p.idle[k][i]
	p.idle[k] = slices.Delete(p.idle[k], i, i+1)
	p.met.idle.Dec()
	return pc
}

// reap removes k's expired channels and returns them for retire, which
// the caller runs after dropping p.mu: Close waits for QUIT's reply, so
// one stalled peer must not hold up checkouts on every other key.
func (p *Pool) reap(k key) (dead []pooled) {
	p.idle[k] = slices.DeleteFunc(p.idle[k], func(pc pooled) bool {
		if p.expired(pc.born) {
			dead = append(dead, pc)
			return true
		}
		return false
	})
	p.met.idle.Add(-int64(len(dead)))
	return dead
}

// retire evicts channels reap took off the pool.
func (p *Pool) retire(dead []pooled) {
	for _, pc := range dead {
		p.evict(pc.cli)
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
	p.park(c.key, pooled{cli: c.Client, mate: c.mate, born: c.born})
}

// park puts pc in k's bucket, or retires it when the pool is closed or
// the bucket full.
func (p *Pool) park(k key, pc pooled) {
	p.mu.Lock()
	if p.closed || len(p.idle[k]) >= p.cfg.MaxIdlePerEndpoint {
		p.mu.Unlock()
		p.evict(pc.cli)
		return
	}
	p.idle[k] = append(p.idle[k], pc)
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

// sweep probes every idle channel once and parks the survivors again;
// park retires those that releases racing the probe left no room for.
// Checkouts racing the sweep simply miss and dial fresh.
func (p *Pool) sweep() {
	p.mu.Lock()
	taken := p.idle
	p.idle = make(map[key][]pooled, len(taken))
	p.mu.Unlock()
	for k, bucket := range taken {
		for _, pc := range bucket {
			p.met.idle.Dec()
			if p.expired(pc.born) || pc.cli.Noop() != nil {
				p.evict(pc.cli)
				continue
			}
			p.park(k, pc)
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
