package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
)

// TestOptionPlacement runs every option through the three places an
// Option is accepted — Dial, ApplyOptions on a logged-in client, and the
// variadic tail of a transfer call (RetrTo) — and checks the documented
// outcome: applied, or the placement rule's error. Options that tell the
// server something fail at Dial (no session yet); WithTelemetry fails
// anywhere but Dial (the metrics are already built).
func TestOptionPlacement(t *testing.T) {
	store := NewMemStore()
	store.Put("x.bin", randomPayload(4<<10))
	srv := startServer(t, Config{Store: store})

	hub := telemetry.NewHub()
	lim := pacing.NewLimiter(pacing.NewBucket(1e9, 0))
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), ParentSID: "deadbeef"}
	var dialed int
	dialer := func(network, addr string) (net.Conn, error) {
		dialed++
		return net.Dial(network, addr)
	}

	for _, tt := range []struct {
		name    string
		opt     Option
		applied func(c *Client) bool
		atDial  error // nil: Dial accepts it
		after   error // nil: ApplyOptions and a transfer call accept it
	}{
		{name: "WithControlTimeout", opt: WithControlTimeout(7 * time.Second),
			applied: func(c *Client) bool { return c.controlTimeout == 7*time.Second }},
		{name: "WithControlTimeout/disable", opt: WithControlTimeout(-1),
			applied: func(c *Client) bool { return c.controlTimeout <= 0 }},
		{name: "WithDataTimeout", opt: WithDataTimeout(9 * time.Second),
			applied: func(c *Client) bool { return c.dataTimeout == 9*time.Second }},
		{name: "WithWindow", opt: WithWindow(1 << 20),
			applied: func(c *Client) bool { return c.windowSize == 1<<20 }},
		{name: "WithWindow/zero", opt: WithWindow(0), atDial: errWindow, after: errWindow},
		{name: "WithDialFunc", opt: WithDialFunc(dialer),
			applied: func(c *Client) bool { return c.dialFunc != nil && dialed > 0 }},
		{name: "WithLimiter", opt: WithLimiter(lim),
			applied: func(c *Client) bool { return c.aggLimiter == lim }},
		{name: "WithLimiter/nil", opt: WithLimiter(nil),
			applied: func(c *Client) bool { return c.aggLimiter == nil }},
		{name: "WithTelemetry", opt: WithTelemetry(hub), after: errNotDialTime,
			applied: func(c *Client) bool { return c.hub == hub && c.met.hub == hub }},
		{name: "WithRate", opt: WithRate(800e6), atDial: errNoSession,
			applied: func(c *Client) bool { return c.rateBps == 800e6 && c.rateWired }},
		{name: "WithRate/clear", opt: WithRate(0),
			applied: func(c *Client) bool { return c.rateBps == 0 && !c.rateWired }},
		{name: "WithTrace", opt: WithTrace(tc), atDial: errNoSession,
			applied: func(c *Client) bool { return c.trace == tc }},
		{name: "WithTrace/clear", opt: WithTrace(telemetry.TraceContext{}),
			applied: func(c *Client) bool { return c.trace == (telemetry.TraceContext{}) }},
	} {
		// check asserts one entry point's outcome: want is the placement
		// error expected there (nil: the option must have been applied).
		check := func(t *testing.T, c *Client, err, want error) {
			t.Helper()
			switch {
			case want != nil:
				if !errors.Is(err, want) {
					t.Fatalf("want %v, got %v", want, err)
				}
			case err != nil:
				t.Fatal(err)
			case !tt.applied(c):
				t.Fatal("accepted but not applied")
			}
		}
		t.Run(tt.name+"/Dial", func(t *testing.T) {
			dialed = 0
			c, err := Dial(srv.Addr(), tt.opt)
			if err == nil {
				defer c.Close()
			} else if c != nil {
				t.Fatal("failed Dial returned a client")
			}
			check(t, c, err, tt.atDial)
		})
		t.Run(tt.name+"/ApplyOptions", func(t *testing.T) {
			dialed = 0
			c := login(t, srv.Addr())
			err := c.ApplyOptions(tt.opt)
			if err == nil {
				// dialFunc only shows on the next data connection.
				if _, err := c.RetrTo(context.Background(), "x.bin", io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			check(t, c, err, tt.after)
		})
		t.Run(tt.name+"/RetrTo", func(t *testing.T) {
			dialed = 0
			c := login(t, srv.Addr())
			stats, err := c.RetrTo(context.Background(), "x.bin", io.Discard, tt.opt)
			if err != nil && stats != (TransferStats{}) {
				t.Fatalf("rejected option still ran a transfer: %+v", stats)
			}
			if err == nil && stats.Bytes != 4<<10 {
				t.Fatalf("delivered %d bytes", stats.Bytes)
			}
			check(t, c, err, tt.after)
		})
	}
}

// wireLog is a scripted control-channel server that records every
// command line it receives and says yes to all of them.
type wireLog struct {
	mu    sync.Mutex
	lines []string
}

func (w *wireLog) verbs() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var vs []string
	for _, l := range w.lines {
		verb, _, _ := strings.Cut(l, " ")
		vs = append(vs, strings.ToUpper(verb))
	}
	return vs
}

func startWireLog(t *testing.T) (*wireLog, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	w := &wireLog{}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "220 scripted\r\n")
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\r\n")
			w.mu.Lock()
			w.lines = append(w.lines, line)
			w.mu.Unlock()
			switch verb, _, _ := strings.Cut(line, " "); strings.ToUpper(verb) {
			case "USER":
				fmt.Fprintf(conn, "331 password required\r\n")
			case "PASS":
				fmt.Fprintf(conn, "230 logged in\r\n")
			case "QUIT":
				fmt.Fprintf(conn, "221 goodbye\r\n")
				return
			default:
				fmt.Fprintf(conn, "200 ok\r\n")
			}
		}
	}()
	return w, ln.Addr().String()
}

// TestLocalOptionsTouchNoWire is the byte-identical guarantee a pooled
// release and checkout depend on: rebinding deadlines and window,
// detaching the limiter, and clearing a rate and a trace that were
// never engaged sends the server nothing — the session's whole command
// stream is Login's handshake. The NOOP is a fence: its reply proves the
// server has logged everything sent before it.
func TestLocalOptionsTouchNoWire(t *testing.T) {
	w, addr := startWireLog(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyOptions(
		WithControlTimeout(5*time.Second),
		WithDataTimeout(5*time.Second),
		WithWindow(1<<20),
		WithLimiter(nil),
		WithRate(0),
		WithTrace(telemetry.TraceContext{}),
	); err != nil {
		t.Fatal(err)
	}
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	if got, want := w.verbs(), []string{"USER", "PASS", "TYPE", "MODE", "NOOP"}; !slices.Equal(got, want) {
		t.Fatalf("wire commands = %v, want %v", got, want)
	}

	// The contrast: the same two options with something to say do talk.
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	if err := c.ApplyOptions(WithRate(8e6), WithTrace(tc), WithRate(0)); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	tail := slices.Clone(w.lines[5:])
	w.mu.Unlock()
	if want := []string{"SITE RATE 8000000", "SITE TRID " + tc.WireToken(), "SITE RATE 0"}; !slices.Equal(tail, want) {
		t.Fatalf("wire after engaging = %q, want %q", tail, want)
	}
}
