package gridftp

import (
	"bytes"
	"context"
	"testing"
	"time"

	"gftpvc/internal/telemetry"
)

// expectShaped asserts a transfer of n payload bytes took at least
// half its ideal duration at rateBps — loose enough to never flake,
// tight enough that an unshaped loopback transfer (sub-millisecond)
// cannot pass.
func expectShaped(t *testing.T, what string, n int64, rateBps int64, elapsed time.Duration) {
	t.Helper()
	ideal := time.Duration(float64(n) * 8 / float64(rateBps) * float64(time.Second))
	if elapsed < ideal/2 {
		t.Fatalf("%s: %d bytes at %d bps took %v, want >= %v (shaping not engaged?)",
			what, n, rateBps, elapsed, ideal/2)
	}
}

// TestClientRateShapedByteIdentical: WithRate holds the transfer near
// the configured rate in both directions, and the shaped payload is
// byte-identical to the unshaped one.
func TestClientRateShapedByteIdentical(t *testing.T) {
	srv := startServer(t, Config{})
	payload := randomPayload(2 << 20)
	const rate = 160e6 // 20 MB/s => ~100 ms for 2 MiB

	// Unshaped reference upload + download.
	ref := login(t, srv.Addr())
	if _, err := upload(ref, "obj", payload, Region{}); err != nil {
		t.Fatal(err)
	}
	plain, _, err := fetch(ref, "obj", Region{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, payload) {
		t.Fatalf("unshaped retrieve differs from payload")
	}

	// Shaped download: per-call option, old server command set untouched
	// beyond one SITE RATE.
	c := login(t, srv.Addr())
	start := time.Now()
	shapedData, _, err := fetch(c, "obj", Region{}, WithRate(rate))
	if err != nil {
		t.Fatal(err)
	}
	expectShaped(t, "shaped RETR", int64(len(payload)), rate, time.Since(start))
	if !bytes.Equal(shapedData, payload) {
		t.Fatalf("shaped retrieve differs from payload")
	}

	// Shaped upload through the same client (rate persists).
	start = time.Now()
	if _, err := upload(c, "obj2", payload, Region{}); err != nil {
		t.Fatal(err)
	}
	expectShaped(t, "shaped STOR", int64(len(payload)), rate, time.Since(start))
	got, _, err := fetch(ref, "obj2", Region{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("shaped store corrupted the object")
	}

	// Clearing the rate restores full speed.
	if err := c.ApplyOptions(WithRate(0)); err != nil {
		t.Fatal(err)
	}
	if c.rateBps != 0 || c.rateWired {
		t.Fatalf("WithRate(0) did not clear shaping state: rate=%d wired=%v", c.rateBps, c.rateWired)
	}
}

// TestServerMaxRate: the server-wide cap shapes a client that asked for
// nothing, and SITE RATE cannot exceed it.
func TestServerMaxRate(t *testing.T) {
	const capBps = 160e6 // 20 MB/s
	hub := telemetry.NewHub()
	srv := startServer(t, Config{MaxRateBps: capBps, Telemetry: hub})
	payload := randomPayload(2 << 20)
	c := login(t, srv.Addr())
	if _, err := upload(c, "obj", payload, Region{}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, _, err := fetch(c, "obj", Region{})
	if err != nil {
		t.Fatal(err)
	}
	expectShaped(t, "capped RETR", int64(len(payload)), capBps, time.Since(start))
	if !bytes.Equal(got, payload) {
		t.Fatalf("capped retrieve differs from payload")
	}
	if n := hub.Counter("gridftp_shaped_bytes_total",
		"Wire bytes moved through a rate-shaped data connection, by operation.",
		telemetry.L("op", "retr")).Value(); n < int64(len(payload)) {
		t.Fatalf("gridftp_shaped_bytes_total(retr) = %d, want >= %d", n, len(payload))
	}

	// Asking for more than the cap keeps the cap.
	if _, err := c.do("SITE", "SITE RATE 999000000000", 200); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	if _, _, err := fetch(c, "obj", Region{}); err != nil {
		t.Fatal(err)
	}
	expectShaped(t, "over-request RETR", int64(len(payload)), capBps, time.Since(start))
}

// TestSiteRateCommand exercises the SITE RATE wire protocol directly.
func TestSiteRateCommand(t *testing.T) {
	srv := startServer(t, Config{})
	c := login(t, srv.Addr())
	if _, err := c.do("SITE", "SITE RATE 1000000", 200); err != nil {
		t.Fatalf("SITE RATE: %v", err)
	}
	if _, err := c.do("SITE", "SITE RATE 0", 200); err != nil {
		t.Fatalf("SITE RATE 0 (clear): %v", err)
	}
	if _, err := c.do("SITE", "SITE RATE banana", 501); err != nil {
		t.Fatalf("SITE RATE banana should 501: %v", err)
	}
	if _, err := c.do("SITE", "SITE RATE -5", 501); err != nil {
		t.Fatalf("SITE RATE -5 should 501: %v", err)
	}
}

// TestStreamShapedWithThrottleAttribution: the streaming paths shape
// too, and the throttle stalls show up on the server's transfer span
// for variance attribution.
func TestStreamShapedWithThrottleAttribution(t *testing.T) {
	const rate = 160e6
	hub := telemetry.NewHub()
	srv := startServer(t, Config{MaxRateBps: rate, Telemetry: hub})
	payload := randomPayload(2 << 20)
	c := login(t, srv.Addr())
	if _, err := upload(c, "obj", payload, Region{}); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	start := time.Now()
	stats, err := c.RetrTo(context.Background(), "obj", &sink)
	if err != nil {
		t.Fatal(err)
	}
	expectShaped(t, "capped streaming RETR", stats.Bytes, rate, time.Since(start))
	if !bytes.Equal(sink.Bytes(), payload) {
		t.Fatalf("shaped streaming retrieve differs from payload")
	}
	var waited float64
	for _, sp := range hub.Spans().Snapshot() {
		waited += sp.ThrottleWaitSec
	}
	if waited <= 0 {
		t.Fatalf("no throttle_wait_sec recorded on any server span")
	}
}

// TestApplyOptionsRebind: one ApplyOptions call rebinds deadlines,
// window, trace, and rate — the pool-checkout path.
func TestApplyOptionsRebind(t *testing.T) {
	srv := startServer(t, Config{})
	c := login(t, srv.Addr())
	err := c.ApplyOptions(
		WithControlTimeout(11*time.Second),
		WithDataTimeout(13*time.Second),
		WithWindow(1<<20),
		WithRate(500e6),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.controlTimeout != 11*time.Second || c.dataTimeout != 13*time.Second {
		t.Fatalf("timeouts not rebound: %v/%v", c.controlTimeout, c.dataTimeout)
	}
	if c.windowSize != 1<<20 {
		t.Fatalf("window not rebound: %d", c.windowSize)
	}
	if c.rateBps != 500e6 || !c.rateWired {
		t.Fatalf("rate not rebound: rate=%d wired=%v", c.rateBps, c.rateWired)
	}
	if c.xferLimiter() == nil {
		t.Fatalf("xferLimiter did not mint a limiter for the configured rate")
	}
	// Bad window surfaces as an error and leaves state untouched.
	if err := c.ApplyOptions(WithWindow(-1)); err == nil {
		t.Fatalf("negative window accepted")
	}
	// Clearing after a wired rate sends SITE RATE 0 and resets.
	if err := c.ApplyOptions(WithRate(-1)); err != nil {
		t.Fatal(err)
	}
	if c.rateBps != 0 || c.rateWired {
		t.Fatalf("clear did not reset: rate=%d wired=%v", c.rateBps, c.rateWired)
	}
	if c.xferLimiter() != nil {
		t.Fatalf("cleared client still mints a limiter")
	}
}

// TestServerAggregateRate: the server-wide bucket (the contention
// model's R) divides the aggregate across sessions that asked for
// nothing — two concurrent unshaped retrieves share R and each takes
// about twice the solo paced duration — and the shaped-rate gauge
// publishes per-session commitments while sessions are open.
func TestServerAggregateRate(t *testing.T) {
	const aggBps = 320e6 // 40 MB/s shared across the whole server
	hub := telemetry.NewHub()
	srv := startServer(t, Config{AggregateRateBps: aggBps, Telemetry: hub})
	payload := randomPayload(4 << 20)
	seed := login(t, srv.Addr())
	if _, err := upload(seed, "obj", payload, Region{}); err != nil {
		t.Fatal(err)
	}
	type result struct {
		elapsed time.Duration
		err     error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			c, err := Dial(srv.Addr())
			if err != nil {
				results <- result{0, err}
				return
			}
			defer c.Close()
			if err := c.Login("u", "p"); err != nil {
				results <- result{0, err}
				return
			}
			start := time.Now()
			got, _, err := fetch(c, "obj", Region{})
			if err == nil && !bytes.Equal(got, payload) {
				err = context.DeadlineExceeded // placeholder: corrupt payload
			}
			results <- result{time.Since(start), err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		// Two transfers share aggBps: each effectively runs at aggBps/2.
		expectShaped(t, "aggregate-capped RETR", int64(len(payload)), aggBps/2, r.elapsed)
	}

	// The shaped-rate gauge: unshaped sessions against a per-session cap
	// publish that cap while open, and retract it at teardown.
	gauge := hub.Gauge("gridftp_server_shaped_rate_bps",
		"Summed effective session rates (SITE RATE clamped by MaxRateBps) across open sessions — the capacity already promised to clients, scraped by fleet registries as committed load.")
	capped := startServer(t, Config{MaxRateBps: 100e6, Telemetry: hub})
	c1 := login(t, capped.Addr())
	c2 := login(t, capped.Addr())
	if v := gauge.Value(); v != 200e6 {
		t.Fatalf("shaped-rate gauge with two capped sessions = %d, want 200e6", v)
	}
	if _, err := c1.do("SITE", "SITE RATE 40000000", 200); err != nil {
		t.Fatal(err)
	}
	if v := gauge.Value(); v != 140e6 {
		t.Fatalf("shaped-rate gauge after SITE RATE 40e6 = %d, want 140e6", v)
	}
	c1.Close()
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for gauge.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("shaped-rate gauge after teardown = %d, want 0", v)
	}
}
