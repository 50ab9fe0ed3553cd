package gridftp

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/telemetry"
)

// TestMaxSessionsSheds proves the session cap: connections beyond
// MaxSessions get a 421 greeting and a count on the rejection metric,
// and capacity freed by a closing session is reusable.
func TestMaxSessionsSheds(t *testing.T) {
	hub := telemetry.NewHub()
	s := startServer(t, Config{Store: NewMemStore(), MaxSessions: 2, Telemetry: hub})
	c1 := login(t, s.Addr())
	c2 := login(t, s.Addr())
	_, _ = c1, c2
	_, err := Dial(s.Addr())
	if err == nil {
		t.Fatal("third session should be shed")
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Reply.Code != 421 {
		t.Fatalf("err = %v, want a 421 greeting", err)
	}
	if !strings.Contains(pe.Reply.Text, "too many sessions") {
		t.Errorf("greeting = %q", pe.Reply.Text)
	}
	if n := hub.Counter("gridftp_sessions_rejected_total",
		"Connections shed with a 421 greeting by the MaxSessions cap.").Value(); n != 1 {
		t.Errorf("rejected = %d, want 1", n)
	}
	c2.Close()
	// The freed slot becomes visible when the handler goroutine exits;
	// poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := Dial(s.Addr())
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Shard gauges sum to the active session count (c1 plus transient).
	var active int64
	for i := 0; i < nConnShards; i++ {
		active += hub.Gauge("gridftp_sessions_active",
			"Control-channel sessions currently open, by registry shard.",
			telemetry.L("shard", fmt.Sprintf("%d", i))).Value()
	}
	if active < 1 {
		t.Errorf("summed shard gauges = %d, want >= 1", active)
	}
}

// TestNoopResetsIdleTimeout pins the keepalive contract the connection
// pool depends on: a session sending only NOOPs must survive 3x the
// server's IdleTimeout, while a mute session is reaped.
func TestNoopResetsIdleTimeout(t *testing.T) {
	const idle = 300 * time.Millisecond
	store := NewMemStore()
	store.Put("obj", []byte("hello"))
	s := startServer(t, Config{Store: store, IdleTimeout: idle})
	kept := login(t, s.Addr())
	mute := login(t, s.Addr())
	deadline := time.Now().Add(3*idle + idle/2)
	for time.Now().Before(deadline) {
		if err := kept.Noop(); err != nil {
			t.Fatalf("NOOP during idle window: %v", err)
		}
		time.Sleep(idle / 3)
	}
	if _, err := kept.Size("obj"); err != nil {
		t.Fatalf("keepalive session reaped despite NOOPs: %v", err)
	}
	// The mute session sat out > 3x IdleTimeout and must be gone —
	// proving the NOOPs above were what kept the other session alive.
	if _, err := mute.Size("obj"); err == nil {
		t.Fatal("idle session survived without keepalive; IdleTimeout not enforced")
	}
}
