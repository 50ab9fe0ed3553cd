// Checkout without a round trip, and pair leases: the liveness check
// must catch every way a parked channel's server end can go bad without
// a NOOP on the wire, eviction must not stall other keys, and GetPair
// must hand back the src/dst pair that last ran together.
package connpool

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
)

// noops reads a server hub's count of NOOP commands dispatched.
func noops(hub *telemetry.Hub) int64 {
	return hub.Counter("gridftp_server_commands_total", "", telemetry.L("verb", "noop")).Value()
}

// parkThenCheckout checks a channel to addr out of p and parks it, runs
// spoil while it sits idle, and checks it out again. A stale channel
// must cost exactly one redial and no error; a healthy one must be a
// hit. The second checkout is returned, still leased.
func parkThenCheckout(t *testing.T, p *Pool, addr string, spoil func(), stale bool) *Conn {
	t.Helper()
	ctx := context.Background()
	c, err := p.Get(ctx, addr, "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	spoil()
	before := p.Stats()
	c2, err := p.Get(ctx, addr, "u", "p")
	if err != nil {
		t.Fatalf("checkout after the park surfaced %v", err)
	}
	t.Cleanup(c2.Release)
	after := p.Stats()
	hits, misses, evictions := after.Hits-before.Hits, after.Misses-before.Misses, after.Evictions-before.Evictions
	switch {
	case stale && (hits != 0 || misses != 1 || evictions != 1):
		t.Fatalf("stale channel: %d hits, %d misses, %d evictions; want one eviction and one redial", hits, misses, evictions)
	case !stale && (hits != 1 || misses != 0 || evictions != 0):
		t.Fatalf("healthy channel: %d hits, %d misses, %d evictions; want one hit", hits, misses, evictions)
	}
	return c2
}

// TestCheckoutLivenessCheck runs the check's four cases: a server that
// idled the session out (FIN), a reset path, a server that spoke out of
// turn, and a healthy channel, which is a hit with no NOOP on the wire.
func TestCheckoutLivenessCheck(t *testing.T) {
	t.Run("idle_timeout_fin", func(t *testing.T) {
		r := rig.New(t)
		hub, _ := r.Hub("gftpd")
		s := r.Server(gridftp.Config{IdleTimeout: 200 * time.Millisecond, Telemetry: hub})
		p := newPool(t, Config{KeepAlive: -1})
		parkThenCheckout(t, p, s.Addr(), func() {
			r.WaitFor("the idle session to be reaped", func() bool {
				return hub.Gauge("gridftp_server_sessions_active", "").Value() == 0
			})
		}, true)
	})
	t.Run("reset", func(t *testing.T) {
		s := rig.New(t).Server(gridftp.Config{})
		proxy, err := faultnet.NewProxy(s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		p := newPool(t, Config{KeepAlive: -1})
		c := parkThenCheckout(t, p, proxy.Addr(), proxy.Reset, true)
		if _, err := c.List(""); err != nil {
			t.Fatalf("redialed channel: %v", err)
		}
	})
	t.Run("unsolicited_421", func(t *testing.T) {
		srv := &scriptedServer{outOfTurn: "421 service closing", outOfTurnSent: make(chan struct{})}
		addr := startScripted(t, srv)
		p := newPool(t, Config{KeepAlive: -1})
		c := parkThenCheckout(t, p, addr, func() { <-srv.outOfTurnSent }, true)
		if err := c.Noop(); err != nil {
			t.Fatalf("redialed channel: %v", err)
		}
	})
	t.Run("healthy", func(t *testing.T) {
		r := rig.New(t)
		hub, _ := r.Hub("gftpd")
		s := r.Server(gridftp.Config{Telemetry: hub})
		p := newPool(t, Config{KeepAlive: -1})
		c := parkThenCheckout(t, p, s.Addr(), func() {}, false)
		if n := noops(hub); n != 0 {
			t.Fatalf("%d NOOPs reached the server; the check must need no round trip", n)
		}
		if _, err := c.List(""); err != nil {
			t.Fatal(err)
		}
	})
	// The last reply's read deadline has long passed when a channel parks
	// longer than its control timeout; the check must not take that for
	// a dead channel.
	t.Run("healthy_past_control_timeout", func(t *testing.T) {
		r := rig.New(t)
		hub, _ := r.Hub("gftpd")
		s := r.Server(gridftp.Config{Telemetry: hub})
		p := newPool(t, Config{KeepAlive: -1, Opts: func(string) []gridftp.Option {
			return []gridftp.Option{gridftp.WithControlTimeout(50 * time.Millisecond)}
		}})
		c := parkThenCheckout(t, p, s.Addr(), func() { time.Sleep(150 * time.Millisecond) }, false)
		if n := noops(hub); n != 0 {
			t.Fatalf("%d NOOPs reached the server; the check must need no round trip", n)
		}
		if _, err := c.List(""); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckoutSkipsExpired parks an expired channel on top of a live
// one for the same server: the checkout must take the live one and
// retire the expired one rather than leave it holding an idle slot.
func TestCheckoutSkipsExpired(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	p := newPool(t, Config{KeepAlive: -1, MaxLifetime: 300 * time.Millisecond})
	ctx := context.Background()
	old, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond)
	young, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	young.Release()
	old.Release() // parked on top, and past MaxLifetime by the checkout
	time.Sleep(100 * time.Millisecond)
	c, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release()
	if c.Client != young.Client {
		t.Fatal("checkout did not take the live channel under the expired one")
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 2 || st.Evictions != 1 || st.Idle != 0 {
		t.Fatalf("after the checkout: %+v", st)
	}
}

// quitSpy signals quit each time its client writes QUIT.
type quitSpy struct {
	net.Conn
	quit chan struct{}
}

func (c quitSpy) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if bytes.HasPrefix(b, []byte("QUIT")) {
		select {
		case c.quit <- struct{}{}:
		default:
		}
	}
	return n, err
}

// TestExpiredEvictionDoesNotBlockOtherKeys retires an expired channel
// whose path has stalled, so its QUIT waits out the 2 s control
// timeout. A checkout on another server must not wait behind it: the
// eviction runs outside the pool lock.
func TestExpiredEvictionDoesNotBlockOtherKeys(t *testing.T) {
	r := rig.New(t)
	stalled, other := r.Server(gridftp.Config{}), r.Server(gridftp.Config{})
	proxy, err := faultnet.NewProxy(stalled.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	quit := make(chan struct{}, 1)
	p := newPool(t, Config{KeepAlive: -1, MaxLifetime: 50 * time.Millisecond,
		Opts: func(addr string) []gridftp.Option {
			if addr != proxy.Addr() {
				return nil
			}
			return []gridftp.Option{gridftp.WithControlTimeout(2 * time.Second),
				gridftp.WithDialFunc(func(network, a string) (net.Conn, error) {
					c, err := net.Dial(network, a)
					return quitSpy{c, quit}, err
				})}
		}})
	ctx := context.Background()
	c, err := p.Get(ctx, proxy.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c.Release()
	proxy.Stall()
	time.Sleep(80 * time.Millisecond) // past MaxLifetime: the pool reads the wall clock
	evicting := make(chan struct{})
	go func() {
		defer close(evicting)
		if c, err := p.Get(ctx, proxy.Addr(), "u", "p"); err == nil {
			c.Release()
		}
	}()
	<-quit // the expired channel's QUIT is out; its reply never comes
	start := time.Now()
	c2, err := p.Get(ctx, other.Addr(), "u", "p")
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	c2.Release()
	if elapsed >= 200*time.Millisecond {
		t.Fatalf("checkout on another server took %v behind a pending eviction", elapsed)
	}
	proxy.Resume()
	proxy.Reset() // end the pending QUIT now rather than at its timeout
	<-evicting
}

// TestGetPairPrefersMates parks two pairs so that each bucket's most
// recent channel belongs to a different pair: GetPair must still hand
// out a pair that ran together. A plain Get that takes one member
// breaks only that member's pair.
func TestGetPairPrefersMates(t *testing.T) {
	r := rig.New(t)
	a, b := r.Server(gridftp.Config{}), r.Server(gridftp.Config{})
	p := newPool(t, Config{KeepAlive: -1})
	ctx := context.Background()
	getPair := func() (*Conn, *Conn) {
		t.Helper()
		src, dst, err := p.GetPair(ctx, a.Addr(), "u", "p", b.Addr(), "u", "p")
		if err != nil {
			t.Fatal(err)
		}
		return src, dst
	}
	a1, b1 := getPair()
	a2, b2 := getPair()
	a1.Release()
	a2.Release()
	b2.Release()
	b1.Release() // buckets: a [a1 a2], b [b2 b1]; LIFO alone would pair a2 with b1
	src, dst := getPair()
	if src.Client != a2.Client || dst.Client != b2.Client {
		t.Fatal("GetPair split a parked pair")
	}
	if st := p.Stats(); st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("after the mated checkout: %+v", st)
	}
	src.Release()
	dst.Release()
	lone, err := p.Get(ctx, b.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Release()
	if lone.Client != b2.Client {
		t.Fatal("plain Get did not take the most recent channel")
	}
	src, dst = getPair() // a2 is parked on top, but only (a1, b1) is whole
	defer src.Release()
	defer dst.Release()
	if src.Client != a1.Client || dst.Client != b1.Client {
		t.Fatal("GetPair passed over the intact pair")
	}
}

// TestGetPairOneServer leases both members of a pair from one bucket,
// as a third-party copy within one server does, and checks that the
// two come back together and keep their data channel.
func TestGetPairOneServer(t *testing.T) {
	r := rig.New(t)
	hub, _ := r.Hub("client")
	s := r.Server(gridftp.Config{}, rig.Objects{"obj": rig.Payload(1, 64<<10)})
	p := newPool(t, Config{KeepAlive: -1,
		Opts: func(string) []gridftp.Option { return []gridftp.Option{gridftp.WithTelemetry(hub)} }})
	ctx := context.Background()
	for i, name := range []string{"copy0", "copy1", "copy2"} {
		src, dst, err := p.GetPair(ctx, s.Addr(), "u", "p", s.Addr(), "u", "p")
		if err != nil {
			t.Fatal(err)
		}
		if src.Client == dst.Client {
			t.Fatal("GetPair leased one channel twice")
		}
		if err := gridftp.ThirdParty(src.Client, dst.Client, "obj", name); err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		dst.Release()
		src.Release()
	}
	if st := p.Stats(); st.Misses != 2 || st.Hits != 4 || st.Idle != 2 {
		t.Fatalf("one-server pair not reused: %+v", st)
	}
	if n := hub.Counter("gridftp_client_data_channel_reuses_total", "").Value(); n != 2 {
		t.Fatalf("%d copies reused the cached data channel, want 2", n)
	}
}
