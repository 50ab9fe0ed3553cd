package connpool

import (
	"context"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
)

func newPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p := New(cfg)
	t.Cleanup(p.Close)
	return p
}

func TestPoolHitMissEviction(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	p := newPool(t, Config{MaxIdlePerEndpoint: 1, KeepAlive: -1})
	ctx := context.Background()
	c1, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get(ctx, s.Addr(), "u", "p") // nothing idle: second dial
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Misses != 2 || st.Hits != 0 || st.Leased != 2 {
		t.Fatalf("after two gets: %+v", st)
	}
	c1.Release()
	c2.Release() // bucket holds 1; this one is evicted, not parked
	st := p.Stats()
	if st.Idle != 1 || st.Leased != 0 || st.Evictions != 1 {
		t.Fatalf("after releases: %+v", st)
	}
	c3, err := p.Get(ctx, s.Addr(), "u", "p") // reuses the parked channel
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("after pooled get: %+v", st)
	}
	// The reused channel works: run a real command through it.
	if _, err := c3.List(""); err != nil {
		t.Fatal(err)
	}
	c3.Release()
	c3.Release() // idempotent: no double-park
	if st := p.Stats(); st.Idle != 1 {
		t.Fatalf("after double release: %+v", st)
	}
	// Credentials are part of the pool key: a different login never
	// reuses another user's channel.
	c4, err := p.Get(ctx, s.Addr(), "other", "p")
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("cross-credential get reused a channel: %+v", st)
	}
	c4.Discard()
}

func TestPoolMaxLifetimeRetires(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	p := newPool(t, Config{MaxLifetime: 50 * time.Millisecond, KeepAlive: -1})
	ctx := context.Background()
	c, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	time.Sleep(80 * time.Millisecond)
	c2, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	if st := p.Stats(); st.Hits != 0 || st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("expired channel was reused: %+v", st)
	}
}

// TestPoolKeepAliveOutlivesIdleTimeout is the PR's keepalive regression
// pin: a pooled channel must survive more than 3x the server's idle
// timeout because the pool NOOPs it, and checking it out afterwards is
// a hit, not a redial.
func TestPoolKeepAliveOutlivesIdleTimeout(t *testing.T) {
	const idle = 300 * time.Millisecond
	s := rig.New(t).Server(gridftp.Config{IdleTimeout: idle})
	p := newPool(t, Config{KeepAlive: idle / 3})
	ctx := context.Background()
	c, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	time.Sleep(3*idle + idle/2)
	c2, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Release()
	st := p.Stats()
	if st.Misses != 1 {
		t.Fatalf("keepalive failed to hold the channel open: %+v", st)
	}
	if _, err := c2.List(""); err != nil {
		t.Fatalf("kept-alive channel dead on reuse: %v", err)
	}
}

// TestPoolRedialsKilledIdleChannel kills a parked channel mid-idle (a
// faultnet proxy resets it); the next checkout must detect the corpse
// on its health check, evict it, and transparently dial fresh — the
// caller never sees an error.
func TestPoolRedialsKilledIdleChannel(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	proxy, err := faultnet.NewProxy(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	p := newPool(t, Config{KeepAlive: -1})
	ctx := context.Background()
	c, err := p.Get(ctx, proxy.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	proxy.Reset() // every proxied conn dies while the channel sits idle
	c2, err := p.Get(ctx, proxy.Addr(), "u", "p")
	if err != nil {
		t.Fatalf("checkout should redial through the dead channel, got %v", err)
	}
	defer c2.Release()
	if _, err := c2.List(""); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Misses != 2 || st.Evictions != 1 {
		t.Fatalf("dead idle channel not evicted+redialed: %+v", st)
	}
}

// TestPoolDiscardAfterMidUseKill covers the other half of the drill: a
// channel that dies while checked out. The job fails, Discard retires
// the corpse, and no lease slot leaks.
func TestPoolDiscardAfterMidUseKill(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	proxy, err := faultnet.NewProxy(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	p := newPool(t, Config{KeepAlive: -1})
	ctx := context.Background()
	c, err := p.Get(ctx, proxy.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyOptions(gridftp.WithControlTimeout(500*time.Millisecond), gridftp.WithDataTimeout(500*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	proxy.Reset()
	if _, err := c.List(""); err == nil {
		t.Fatal("command on killed channel should fail")
	}
	c.Discard()
	if st := p.Stats(); st.Leased != 0 || st.Idle != 0 || st.Evictions != 1 {
		t.Fatalf("leaked a slot after mid-use kill: %+v", st)
	}
	c2, err := p.Get(ctx, proxy.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c2.Release()
}

// TestPoolDaemonDeath: the remote daemon dies entirely. Checkouts fail
// with a dial error but never strand lease accounting, and once the
// daemon is back the same pool serves it again.
func TestPoolDaemonDeath(t *testing.T) {
	r := rig.New(t)
	s := r.Server(gridftp.Config{})
	addr := s.Addr()
	p := newPool(t, Config{KeepAlive: 50 * time.Millisecond})
	ctx := context.Background()
	c, err := p.Get(ctx, addr, "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	s.Close()
	// The keepalive sweep or the checkout health-check reaps the dead
	// channel; either way Get must surface a dial error, not a hang,
	// and leave zero leases outstanding.
	if _, err := p.Get(ctx, addr, "u", "p"); err == nil {
		t.Fatal("checkout against a dead daemon should fail")
	}
	if st := p.Stats(); st.Leased != 0 || st.Idle != 0 {
		t.Fatalf("dead daemon leaked pool slots: %+v", st)
	}
	// Revive on the same port is not portable; a new daemon on a new
	// port through the same pool proves the pool itself is still alive.
	s2 := r.Server(gridftp.Config{})
	c2, err := p.Get(ctx, s2.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c2.Release()
}

func TestPoolCloseClosedPool(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	p := New(Config{})
	ctx := context.Background()
	c, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	p.Close()
	p.Close() // idempotent
	if _, err := p.Get(ctx, s.Addr(), "u", "p"); err != ErrClosed {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
	// Releasing a connection checked out before Close must not park it
	// into a closed pool. (c was already released; exercise Discard on
	// a fresh pool's conn against the closed-pool path instead.)
	p2 := New(Config{})
	c2, err := p2.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	p2.Close()
	c2.Release()
	if st := p2.Stats(); st.Idle != 0 {
		t.Fatalf("release parked into a closed pool: %+v", st)
	}
}

func TestPoolMetricsExposition(t *testing.T) {
	r := rig.New(t)
	hub, _ := r.Hub("pool")
	s := r.Server(gridftp.Config{})
	p := newPool(t, Config{Telemetry: hub, KeepAlive: -1})
	ctx := context.Background()
	c, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	c, err = p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	if n := hub.Counter("gridftp_pool_hits_total",
		"Checkouts served by a pooled control channel.").Value(); n != 1 {
		t.Errorf("hits counter = %d, want 1", n)
	}
	if n := hub.Counter("gridftp_pool_misses_total",
		"Checkouts that dialed fresh (empty bucket, expired, or stale channel).").Value(); n != 1 {
		t.Errorf("misses counter = %d, want 1", n)
	}
	if n := hub.Gauge("gridftp_pool_idle",
		"Control channels parked in the pool.").Value(); n != 1 {
		t.Errorf("idle gauge = %d, want 1", n)
	}
}
