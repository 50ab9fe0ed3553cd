// Checkout-lifecycle regression pins: the sweep/Release reinsert race
// that grew buckets past MaxIdlePerEndpoint, the Release/Discard double
// lifecycle that skewed the leased census negative, and the parked
// channel that kept a previous job's server-side rate cap when the
// SITE RATE 0 clear was rejected.
package connpool

import (
	"bufio"
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
)

// scriptedServer is a minimal line-based control-channel fake, just
// enough protocol for Dial + Login + NOOP + SITE RATE. It exists so
// tests can script behaviors the real server never exhibits: slow NOOP
// replies (to hold a sweep mid-probe) and SITE RATE 0 rejections.
type scriptedServer struct {
	ln net.Listener
	// noopDelay stalls every NOOP reply, pinning a keepalive sweep
	// inside its probe window.
	noopDelay time.Duration
	// noopSeen, when non-nil, is signalled (without blocking) each time
	// a NOOP arrives, before any noopDelay: the event a test waits on to
	// know a probe is in flight.
	noopSeen chan struct{}
	// rejectClear answers SITE RATE 0 with 550 while still accepting
	// nonzero rates — a shaped session that refuses to unshape.
	rejectClear bool
	// outOfTurn, when set, is written unprompted right after the first
	// session's login completes (its MODE reply); outOfTurnSent is then
	// closed.
	outOfTurn     string
	outOfTurnSent chan struct{}
	once          sync.Once
}

func startScripted(t *testing.T, s *scriptedServer) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.ln = ln
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return ln.Addr().String()
}

func (s *scriptedServer) serve(conn net.Conn) {
	defer conn.Close()
	write := func(line string) { conn.Write([]byte(line + "\r\n")) }
	write("220 scripted ready")
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		verb := strings.ToUpper(strings.Fields(line + " x")[0])
		switch {
		case verb == "USER":
			write("331 send password")
		case verb == "PASS":
			write("230 logged in")
		case verb == "TYPE", verb == "MODE":
			write("200 ok")
			if verb == "MODE" && s.outOfTurn != "" {
				s.once.Do(func() {
					write(s.outOfTurn)
					close(s.outOfTurnSent)
				})
			}
		case verb == "NOOP":
			select {
			case s.noopSeen <- struct{}{}:
			default:
			}
			if s.noopDelay > 0 {
				time.Sleep(s.noopDelay)
			}
			write("200 ok")
		case strings.HasPrefix(strings.ToUpper(line), "SITE RATE "):
			if strings.TrimSpace(line[len("SITE RATE "):]) == "0" && s.rejectClear {
				write("550 rate is contractual")
			} else {
				write("200 shaped")
			}
		case verb == "QUIT":
			write("221 bye")
			return
		default:
			write("200 ok")
		}
	}
}

// TestPoolSweepReinsertRespectsIdleBound races a Release against the
// keepalive sweep: the sweep takes the bucket, probes its channel
// against a server whose NOOP replies are slow, and meanwhile a Release
// parks a second channel into the now-empty bucket. When the sweep
// reinserts its survivor the bucket must still respect
// MaxIdlePerEndpoint — pre-fix, the bare append grew it to 2.
func TestPoolSweepReinsertRespectsIdleBound(t *testing.T) {
	srv := &scriptedServer{noopDelay: 150 * time.Millisecond, noopSeen: make(chan struct{}, 1)}
	addr := startScripted(t, srv)
	p := newPool(t, Config{MaxIdlePerEndpoint: 1, KeepAlive: -1})
	ctx := context.Background()
	c1, err := p.Get(ctx, addr, "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get(ctx, addr, "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	c1.Release() // bucket: [c1]
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.sweep() // takes [c1], stalls ~150ms inside the NOOP probe
	}()
	<-srv.noopSeen // the probe arrived: sweep holds c1 outside the lock
	c2.Release()   // bucket looks empty: parks c2
	<-done
	st := p.Stats()
	if st.Idle > 1 {
		t.Fatalf("sweep reinsert grew the bucket past MaxIdlePerEndpoint: %+v", st)
	}
	if st.Idle != 1 || st.Evictions != 1 {
		t.Fatalf("want 1 idle + 1 surplus eviction after the race, got %+v", st)
	}
}

// TestPoolConcurrentReleaseDiscard runs Release and Discard on the same
// Conn from racing goroutines, repeatedly: exactly one side may run the
// lifecycle. Pre-fix the unsynchronized done flag let both through,
// double-decrementing the leased census below zero (and racing under
// -race).
func TestPoolConcurrentReleaseDiscard(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	p := newPool(t, Config{MaxIdlePerEndpoint: 2, KeepAlive: -1})
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		c, err := p.Get(ctx, s.Addr(), "u", "p")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); c.Release() }()
		go func() { defer wg.Done(); c.Discard() }()
		wg.Wait()
		if st := p.Stats(); st.Leased != 0 {
			t.Fatalf("iteration %d: leased census skewed: %+v", i, st)
		}
	}
}

// TestPoolReleaseEvictsWhenRateClearRejected checks out a channel,
// engages server-side shaping (SITE RATE accepted), then Releases it
// against a server that rejects the SITE RATE 0 clear without killing
// the channel. The channel still carries the old job's server-side cap,
// so it must be evicted, not parked — pre-fix it was parked and the
// next checkout inherited the cap.
func TestPoolReleaseEvictsWhenRateClearRejected(t *testing.T) {
	addr := startScripted(t, &scriptedServer{rejectClear: true})
	p := newPool(t, Config{MaxIdlePerEndpoint: 2, KeepAlive: -1})
	ctx := context.Background()
	c, err := p.Get(ctx, addr, "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	// The job shapes its session; the scripted server accepts.
	if err := c.ApplyOptions(gridftp.WithRate(8e6)); err != nil {
		t.Fatal(err)
	}
	c.Release() // SITE RATE 0 → 550: the clear failed, channel is tainted
	st := p.Stats()
	if st.Idle != 0 {
		t.Fatalf("tainted channel was parked for reuse: %+v", st)
	}
	if st.Evictions != 1 || st.Leased != 0 {
		t.Fatalf("want the tainted channel evicted, got %+v", st)
	}
}

// TestStaleLeaseHandleIsNoop ends a lease, keeps a copy of its handle
// and the handle itself, and lets the channel be leased again: Release
// and Discard on either old handle (and on a zero Conn) must change
// nothing, neither the census and gauges nor the new holder's lease,
// which still works and still parks its channel on its own Release.
func TestStaleLeaseHandleIsNoop(t *testing.T) {
	r := rig.New(t)
	hub, _ := r.Hub("pool")
	s := r.Server(gridftp.Config{})
	p := newPool(t, Config{Telemetry: hub, KeepAlive: -1})
	ctx := context.Background()
	leased := hub.Gauge("gridftp_pool_leased", "Control channels checked out to jobs.")
	idle := hub.Gauge("gridftp_pool_idle", "Control channels parked in the pool.")
	census := func(wantLeased, wantIdle int) {
		t.Helper()
		st := p.Stats()
		if st.Leased != wantLeased || st.Idle != wantIdle || st.Evictions != 0 {
			t.Fatalf("census %+v, want %d leased, %d idle, no evictions", st, wantLeased, wantIdle)
		}
		if l, i := leased.Value(), idle.Value(); l != int64(wantLeased) || i != int64(wantIdle) {
			t.Fatalf("gauges: %d leased, %d idle; want %d, %d", l, i, wantLeased, wantIdle)
		}
	}
	old, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	copied := old
	old.Release()
	copied.Release()
	copied.Discard()
	census(0, 1)
	cur, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Client != old.Client {
		t.Fatal("the parked channel was not leased again")
	}
	for _, stale := range []Conn{old, copied, {}} {
		stale.Release()
		stale.Discard()
	}
	census(1, 0)
	if err := cur.Noop(); err != nil {
		t.Fatalf("the new holder's channel after stale ends: %v", err)
	}
	cur.Release()
	census(0, 1)
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stale ends touched the counters: %+v", st)
	}
}

// TestStaleLeaseHandleRacesNewLease ends stale handles while another
// goroutine leases and releases the same channel over and over: no
// stale end may take the new holder's lease, so the census never goes
// negative and ends with the one channel parked. Under -race a stale
// end that read or wrote the record past its failed CAS shows here.
func TestStaleLeaseHandleRacesNewLease(t *testing.T) {
	s := rig.New(t).Server(gridftp.Config{})
	p := newPool(t, Config{MaxIdlePerEndpoint: 1, KeepAlive: -1})
	ctx := context.Background()
	first, err := p.Get(ctx, s.Addr(), "u", "p")
	if err != nil {
		t.Fatal(err)
	}
	first.Release()
	const leases = 50
	stale := make(chan Conn, leases+1) // every ended handle, sent without waiting
	stale <- first
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h := range stale {
			h.Release()
			h.Discard()
		}
	}()
	for i := 0; i < leases; i++ {
		c, err := p.Get(ctx, s.Addr(), "u", "p")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Noop(); err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if st := p.Stats(); st.Leased != 1 {
			t.Fatalf("lease %d: census %+v, want 1 leased", i, st)
		}
		c.Release()
		stale <- c
	}
	close(stale)
	<-done
	if st := p.Stats(); st.Leased != 0 || st.Idle != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("after the race: %+v, want the one channel parked", st)
	}
}
