package broker

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc"
)

const (
	srcNode = "nersc-ornl-dtn-src"
	dstNode = "nersc-ornl-dtn-dst"
)

func startDaemon(t *testing.T, reservable float64) *oscarsd.Server {
	t.Helper()
	srv, err := oscarsd.Start(oscarsd.Config{
		Addr:               "127.0.0.1:0",
		Scenario:           "nersc-ornl",
		ReservableFraction: reservable,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialClient(t *testing.T, addr string) *vc.Client {
	t.Helper()
	c, err := vc.Dial(context.Background(), addr, vc.WithCallTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testConfig is a fast-deciding broker: 100ms "setup delay" at factor
// 10 means sessions predicted to run >= 1s (>= 100 MB at 800 Mbps)
// qualify for a circuit. The rate clamp is pinned (min == max) so the
// throughput observed from artificially fast test jobs cannot move the
// amortization threshold between assertions.
func testConfig(hub *telemetry.Hub) Config {
	return Config{
		Gap:             150 * time.Millisecond,
		SetupDelay:      100 * time.Millisecond,
		OverheadFactor:  10,
		MinRateBps:      800e6,
		MaxRateBps:      800e6,
		HoldSlack:       time.Second,
		DecisionTimeout: time.Second,
		Route:           StaticRoute(srcNode, dstNode),
		Telemetry:       hub,
	}
}

// qualifying is a size hint comfortably above the amortization
// threshold (1s at the 800 Mbps reference = 100 MB).
const qualifying = int64(1 << 30) // 1 GiB ≈ 10.7s predicted

func newBroker(t *testing.T, client *vc.Client, cfg Config) *Broker {
	t.Helper()
	b, err := New(client, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestConfigValidation(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	if _, err := New(nil, testConfig(nil)); err == nil {
		t.Error("nil client accepted")
	}
	if _, err := New(c, Config{}); err == nil {
		t.Error("zero Gap accepted")
	}
	if _, err := New(c, Config{Gap: time.Second, HoldSlack: -1}); err == nil {
		t.Error("negative HoldSlack accepted")
	}
}

// TestShortSessionStaysIP: a session below the amortization threshold
// is dispatched best-effort, with no fallback story and no reservation
// RPC consequences.
func TestShortSessionStaysIP(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	b := newBroker(t, c, testConfig(nil))

	lease := b.Begin(context.Background(), "src:1", "dst:1", 1<<20) // 1 MB: ~10ms predicted
	disp := lease.Disposition()
	if disp.Service != ServiceIP || disp.Fallback != "" || disp.CircuitID != 0 {
		t.Fatalf("short session: %+v, want plain IP", disp)
	}
	lease.End(1<<20, 10*time.Millisecond)
}

// TestAmortizingSessionGetsCircuit: a predicted-long session reserves a
// circuit; follow-on jobs within the gap ride (and extend) it; after
// the gap the circuit is cancelled and its bandwidth is free again.
func TestAmortizingSessionGetsCircuit(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	hub := telemetry.NewHub()
	b := newBroker(t, c, testConfig(hub))
	ctx := context.Background()

	l1 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	d1 := l1.Disposition()
	if d1.Service != ServiceVC || d1.CircuitID == 0 {
		t.Fatalf("amortizing session: %+v, want VC", d1)
	}
	if d1.SetupWait <= 0 {
		t.Errorf("first VC job should report setup wait, got %v", d1.SetupWait)
	}
	l1.End(qualifying, 500*time.Millisecond)

	// Back-to-back follow-on inside the gap: same circuit, no new setup
	// wait, and the hold is extended for the added bytes — the 20 GiB
	// hint needs far more than the first booking's hold.
	l2 := b.Begin(ctx, "src:1", "dst:1", 20*qualifying)
	d2 := l2.Disposition()
	if d2.Service != ServiceVC || d2.CircuitID != d1.CircuitID {
		t.Fatalf("follow-on job: %+v, want same circuit %d", d2, d1.CircuitID)
	}
	if d2.SetupWait != 0 {
		t.Errorf("follow-on job paid setup wait %v", d2.SetupWait)
	}
	l2.End(qualifying, 500*time.Millisecond)

	// Let the gap expire: the session closes and cancels the circuit.
	deadline := time.Now().Add(3 * time.Second)
	for b.Sessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := b.Sessions(); n != 0 {
		t.Fatalf("%d sessions still open after gap", n)
	}

	var dump strings.Builder
	hub.Registry().WriteProm(&dump)
	out := dump.String()
	for _, want := range []string{
		`vc_broker_reserved_total 1`,
		`vc_broker_extended_total 1`,
		`vc_broker_cancelled_total 1`,
		`vc_broker_jobs_total{service="vc"} 2`,
		`vc_broker_amortization_ratio_count 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestFirstTransferClampedRateDrivesThreshold is the decision-table
// case for a pair's very first transfer: the EWMA is zero, so rateFor
// falls back to the configured reference — which MinRateBps then
// raises BEFORE the amortization test runs. With a 8 Mbps reference
// clamped up to 800 Mbps, the threshold is 100 MB, not 1 MB: a 10 MB
// session must stay IP (at 800 Mbps it cannot amortize the setup), and
// only a session past the clamped threshold reserves.
func TestFirstTransferClampedRateDrivesThreshold(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	cfg := testConfig(nil)
	cfg.ReferenceThroughputBps = 8e6 // unclamped threshold would be 1 MB
	b := newBroker(t, c, cfg)
	ctx := context.Background()

	cases := []struct {
		name     string
		src, dst string // distinct pair per case: always a zero-EWMA first transfer
		hint     int64
		wantVC   bool
	}{
		// 10 MB clears the unclamped 1 MB threshold by 10x; if the
		// clamp ran after the amortization test this would reserve.
		{"below clamped threshold", "src:a", "dst:a", 10 << 20, false},
		// 200 MB clears the clamped 100 MB threshold.
		{"above clamped threshold", "src:b", "dst:b", 200 << 20, true},
	}
	for _, tc := range cases {
		lease := b.Begin(ctx, tc.src, tc.dst, tc.hint)
		disp := lease.Disposition()
		gotVC := disp.Service == ServiceVC
		if gotVC != tc.wantVC {
			t.Errorf("%s: disposition %+v, want VC=%v", tc.name, disp, tc.wantVC)
		}
		if !tc.wantVC && disp.Fallback != "" {
			t.Errorf("%s: sub-threshold session carries fallback %q, want none", tc.name, disp.Fallback)
		}
		lease.End(tc.hint, 100*time.Millisecond)
	}
}

// TestRejectFallsBackToIP: when admission fails, jobs are dispatched
// best-effort with the reject recorded, the session does not hammer the
// daemon again, and a later session retries.
func TestRejectFallsBackToIP(t *testing.T) {
	srv := startDaemon(t, 0.5)
	c := dialClient(t, srv.Addr())
	hub := telemetry.NewHub()
	b := newBroker(t, c, testConfig(hub))
	ctx := context.Background()

	// Saturate the reservable bandwidth out from under the broker.
	now, err := c.Now(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := c.Reserve(ctx, vc.ReserveRequest{
		Src: srcNode, Dst: dstNode, RateBps: 4.9e9,
		Start: now + 1, End: now + 3600,
	})
	if err != nil {
		t.Fatal(err)
	}

	l1 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	d1 := l1.Disposition()
	if d1.Service != ServiceIP || !strings.Contains(d1.Fallback, "admission rejected") {
		t.Fatalf("rejected session: %+v, want IP with admission-rejected fallback", d1)
	}
	l1.End(qualifying, 100*time.Millisecond)

	// Same session: the reject is sticky, no second reservation attempt.
	l2 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	if d2 := l2.Disposition(); d2.Service != ServiceIP || d2.Fallback == "" {
		t.Fatalf("follow-on after reject: %+v", d2)
	}
	l2.End(qualifying, 100*time.Millisecond)

	// Free the bandwidth and let the session close: the next session
	// gets its circuit.
	if err := c.Cancel(ctx, hog.ID); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2*b.cfg.Gap + 100*time.Millisecond)
	l3 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	if d3 := l3.Disposition(); d3.Service != ServiceVC {
		t.Fatalf("post-recovery session: %+v, want VC", d3)
	}
	l3.End(qualifying, 100*time.Millisecond)

	var dump strings.Builder
	hub.Registry().WriteProm(&dump)
	if !strings.Contains(dump.String(), `vc_broker_fallback_total{reason="rejected"} 1`) {
		t.Errorf("metrics missing rejected fallback:\n%s", dump.String())
	}
}

// TestDaemonDeathDegradesAndRecovers: killing the control-plane path
// mid-session degrades the session to IP (without failing any job);
// once the daemon is reachable again, the next session reserves as
// normal through the client's auto-reconnect.
func TestDaemonDeathDegradesAndRecovers(t *testing.T) {
	srv := startDaemon(t, 0.8)
	proxy, err := faultnet.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := dialClient(t, proxy.Addr())
	hub := telemetry.NewHub()
	cfg := testConfig(hub)
	cfg.DecisionTimeout = 300 * time.Millisecond
	b := newBroker(t, c, cfg)
	ctx := context.Background()

	l1 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	if d1 := l1.Disposition(); d1.Service != ServiceVC {
		t.Fatalf("healthy session: %+v, want VC", d1)
	}
	l1.End(qualifying, 100*time.Millisecond)

	// The daemon path dies mid-session: stall (so calls time out) and
	// reset existing connections. The 64 GiB hint forces an extension
	// RPC, which now fails — the session degrades instead of riding a
	// hold it can no longer manage.
	proxy.Stall()
	proxy.Reset()
	start := time.Now()
	l2 := b.Begin(ctx, "src:1", "dst:1", 64*qualifying)
	d2 := l2.Disposition()
	if d2.Service != ServiceIP || !strings.Contains(d2.Fallback, "unavailable") {
		t.Fatalf("mid-outage job: %+v, want IP with unavailable fallback", d2)
	}
	// The job must not have been held hostage by the dead control
	// plane: one decision timeout, give or take retries.
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dispatch under outage took %v", elapsed)
	}
	l2.End(qualifying, 100*time.Millisecond)

	// Recovery: service returns, gap expires, next session is VC again.
	proxy.Resume()
	time.Sleep(2*cfg.Gap + 100*time.Millisecond)
	l3 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	if d3 := l3.Disposition(); d3.Service != ServiceVC {
		t.Fatalf("post-recovery session: %+v, want VC", d3)
	}
	l3.End(qualifying, 100*time.Millisecond)

	var dump strings.Builder
	hub.Registry().WriteProm(&dump)
	if !strings.Contains(dump.String(), `reason="lost"`) {
		t.Errorf("metrics missing lost fallback:\n%s", dump.String())
	}
}

// TestUnroutedPairsStayIP: without a topology route the broker never
// touches the control plane.
func TestUnroutedPairsStayIP(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	cfg := testConfig(nil)
	cfg.Route = nil
	b := newBroker(t, c, cfg)
	lease := b.Begin(context.Background(), "src:1", "dst:1", qualifying)
	if d := lease.Disposition(); d.Service != ServiceIP || d.Fallback != "" {
		t.Fatalf("unrouted pair: %+v, want plain IP", d)
	}
	lease.End(qualifying, time.Millisecond)
}

// TestSessionUpgradesAsBytesAccumulate: jobs individually below the
// threshold upgrade the session to VC once the observed session total
// crosses it — the paper's multi-transfer sessions.
func TestSessionUpgradesAsBytesAccumulate(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	b := newBroker(t, c, testConfig(nil))
	ctx := context.Background()

	const chunk = int64(40 << 20) // 40 MB: below the ~100 MB threshold
	l1 := b.Begin(ctx, "src:1", "dst:1", chunk)
	if d := l1.Disposition(); d.Service != ServiceIP {
		t.Fatalf("first small job: %+v, want IP", d)
	}
	l1.End(chunk, 50*time.Millisecond)
	l2 := b.Begin(ctx, "src:1", "dst:1", chunk)
	l2.End(chunk, 50*time.Millisecond)
	// 80 MB seen + 40 MB hint = 120 MB predicted: crosses the line.
	l3 := b.Begin(ctx, "src:1", "dst:1", chunk)
	if d := l3.Disposition(); d.Service != ServiceVC {
		t.Fatalf("accumulated session: %+v, want VC upgrade", d)
	}
	l3.End(chunk, 50*time.Millisecond)
}

// TestConcurrentJobsRaceClean drives many concurrent Begin/End pairs
// across a handful of endpoint pairs; run under -race via RACE_PKGS.
func TestConcurrentJobsRaceClean(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	b := newBroker(t, c, testConfig(telemetry.NewHub()))
	var wg sync.WaitGroup
	pairs := []string{"a", "b", "c"}
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pair := pairs[i%len(pairs)]
			lease := b.Begin(context.Background(), "src:"+pair, "dst:"+pair, qualifying)
			time.Sleep(time.Duration(i%5) * time.Millisecond)
			lease.End(qualifying, 10*time.Millisecond)
		}(i)
	}
	wg.Wait()
	b.Close()
	// Close with in-flight leases already ended must have cancelled
	// every circuit; a full-capacity reservation must now fit.
	now, err := c.Now(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Reserve(context.Background(), vc.ReserveRequest{
		Src: srcNode, Dst: dstNode, RateBps: 4e9,
		Start: now + 1, End: now + 10,
	}); err != nil {
		t.Fatalf("bandwidth leaked after broker close: %v", err)
	}
}

// TestLeaseRateChangeWatcher: an in-flight VC lease that registered
// OnRateChange hears about a later extension re-booking the circuit at
// a new rate, and the registration dies with the lease.
func TestLeaseRateChangeWatcher(t *testing.T) {
	srv := startDaemon(t, 0.8)
	c := dialClient(t, srv.Addr())
	cfg := testConfig(nil)
	cfg.MaxRateBps = 1600e6 // leave EWMA headroom above the 800 Mbps floor
	b := newBroker(t, c, cfg)
	ctx := context.Background()

	// First job reserves at the floor (no EWMA yet) and stays in flight.
	l1 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	d1 := l1.Disposition()
	if d1.Service != ServiceVC || d1.RateBps != 800e6 {
		t.Fatalf("first lease: %+v, want VC at 800e6", d1)
	}
	rated := make(chan float64, 4)
	l1.OnRateChange(func(bps float64) { rated <- bps })

	// A fast sibling job moves the pair's EWMA far above the ceiling.
	l2 := b.Begin(ctx, "src:1", "dst:1", qualifying)
	l2.End(qualifying, 500*time.Millisecond) // ~17 Gbps observed

	// The next job's hint forces a Modify, re-booking at the clamped
	// EWMA rate — the in-flight l1 must hear about it.
	l3 := b.Begin(ctx, "src:1", "dst:1", 20*qualifying)
	if d3 := l3.Disposition(); d3.RateBps != 1600e6 {
		t.Fatalf("extended lease rate = %v, want 1600e6", d3.RateBps)
	}
	select {
	case bps := <-rated:
		if bps != 1600e6 {
			t.Fatalf("watcher fired with %v, want 1600e6", bps)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("rate-change watcher never fired")
	}
	l3.End(qualifying, time.Second)
	l1.End(qualifying, 10*time.Second)

	// OnRateChange is a no-op on nil and IP-disposition leases.
	var nilLease *Lease
	nilLease.OnRateChange(func(float64) { t.Error("nil lease fired") })
	ip := b.Begin(ctx, "other:1", "elsewhere:1", 1<<20)
	ip.OnRateChange(func(float64) { t.Error("ip lease fired") })
	ip.End(1<<20, 10*time.Millisecond)
}

// TestBeginSkipsExpiredSessionCancel: closing a gap-expired circuit
// session cancels its circuit outside the session lock, and off Begin's
// path, so a Begin on that pair while the control plane is stalled waits
// out only its own Reserve — one DecisionTimeout — and not the stuck
// Cancel before it. Both closers are covered: the gap timer, and a
// Begin that finds the session expired before the timer fires.
func TestBeginSkipsExpiredSessionCancel(t *testing.T) {
	srv := startDaemon(t, 0.8)
	proxy, err := faultnet.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := dialClient(t, proxy.Addr())
	cfg := testConfig(nil)
	cfg.DecisionTimeout = 500 * time.Millisecond
	b := newBroker(t, c, cfg)
	ctx := context.Background()

	timerPair := b.Begin(ctx, "src:1", "dst:1", qualifying)
	inlinePair := b.Begin(ctx, "src:2", "dst:2", qualifying)
	for _, l := range []*Lease{timerPair, inlinePair} {
		if d := l.Disposition(); d.Service != ServiceVC {
			t.Fatalf("healthy session: %+v, want VC", d)
		}
	}
	timerPair.End(qualifying, 100*time.Millisecond)
	proxy.Stall()
	proxy.Reset()

	begin := func(pair string) {
		t.Helper()
		start := time.Now()
		l := b.Begin(ctx, "src:"+pair, "dst:"+pair, qualifying)
		elapsed := time.Since(start)
		if d := l.Disposition(); d.Service != ServiceIP || !strings.Contains(d.Fallback, "unavailable") {
			t.Fatalf("pair %s, new session under outage: %+v, want IP with unavailable fallback", pair, d)
		}
		if limit := cfg.DecisionTimeout + 150*time.Millisecond; elapsed > limit {
			t.Fatalf("pair %s: Begin on a gap-expired session took %v, want <= %v", pair, elapsed, limit)
		}
		l.End(qualifying, 100*time.Millisecond)
	}
	// The close timer (Gap + 50ms) has fired and is stuck in its Cancel.
	time.Sleep(cfg.Gap + 100*time.Millisecond)
	begin("1")
	// Past the gap but (usually) before the close timer: Begin closes
	// the session itself.
	inlinePair.End(qualifying, 100*time.Millisecond)
	time.Sleep(cfg.Gap + 20*time.Millisecond)
	begin("2")
	proxy.Resume()
}
