package gridftp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"

	"gftpvc/internal/telemetry"
)

// rawControl opens a raw control channel, authenticates, and returns a
// send-command/read-reply helper for exercising verbs below the Client
// API.
func rawControl(t *testing.T, addr string) func(line string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	r := bufio.NewReader(conn)
	readReply := func() string {
		t.Helper()
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			line = strings.TrimRight(line, "\r\n")
			if len(line) >= 4 && line[3] == ' ' {
				return line
			}
		}
	}
	readReply() // greeting
	send := func(line string) string {
		t.Helper()
		fmt.Fprintf(conn, "%s\r\n", line)
		return readReply()
	}
	if rep := send("USER u"); !strings.HasPrefix(rep, "331") {
		t.Fatalf("USER: %s", rep)
	}
	if rep := send("PASS p"); !strings.HasPrefix(rep, "230") {
		t.Fatalf("PASS: %s", rep)
	}
	return send
}

// TestSiteUnknownSubcommand pins the degrade contract SITE TRID relies
// on: an unknown SITE subcommand gets a 500-family reply — the same
// family pre-TRID builds sent for SITE itself — never a hang or a
// success code, so tracing clients can probe newer extensions safely.
func TestSiteUnknownSubcommand(t *testing.T) {
	srv := startServer(t, Config{})
	send := rawControl(t, srv.Addr())
	for _, cmd := range []string{"SITE NOSUCH", "SITE NOSUCH arg1 arg2", "SITE"} {
		rep := send(cmd)
		if !strings.HasPrefix(rep, "500 ") {
			t.Errorf("%s: got %q, want a 500 reply", cmd, rep)
		}
	}
}

func TestSiteTrid(t *testing.T) {
	hub := telemetry.NewHub()
	srv := startServer(t, Config{Telemetry: hub})
	send := rawControl(t, srv.Addr())

	trace := telemetry.NewTraceID()
	if rep := send("SITE TRID " + trace + "-deadbeef"); !strings.HasPrefix(rep, "200 ") {
		t.Fatalf("SITE TRID: %q", rep)
	}
	evs := hub.Events().ByTrace(trace)
	if len(evs) != 1 || evs[0].Kind != "trid_bound" {
		t.Fatalf("trid_bound event: %+v", evs)
	}

	for _, bad := range []string{"SITE TRID", "SITE TRID xyz", "SITE TRID " + trace + "-zz"} {
		if rep := send(bad); !strings.HasPrefix(rep, "501 ") {
			t.Errorf("%s: got %q, want 501", bad, rep)
		}
	}
}

// TestClientSetTraceDegrade checks the client side of the contract: a
// trace binding against a server that rejects SITE returns nil (silent
// degrade) while keeping local span tagging, and binding against a
// TRID-aware server tags the server's transfer span with the trace.
func TestClientSetTraceDegrade(t *testing.T) {
	hub := telemetry.NewHub()
	store := NewMemStore()
	store.Put("x.bin", make([]byte, 1<<10))
	srv := startServer(t, Config{Store: store, Telemetry: hub})

	chub := telemetry.NewHub()
	c, err := Dial(srv.Addr(), WithTelemetry(chub))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), ParentSID: "deadbeef"}
	if err := c.ApplyOptions(WithTrace(tc)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Retr("x.bin"); err != nil {
		t.Fatal(err)
	}
	if got := hub.Spans().ByTrace(tc.TraceID); len(got) != 1 || got[0].ParentSID != "deadbeef" {
		t.Fatalf("server span tagging: %+v", got)
	}
	if got := chub.Spans().ByTrace(tc.TraceID); len(got) != 1 || got[0].Op != "retr" {
		t.Fatalf("client span tagging: %+v", got)
	}

	if err := c.ApplyOptions(WithTrace(telemetry.TraceContext{TraceID: "nothex"})); err == nil {
		t.Fatal("invalid trace context accepted")
	}
	// Clearing stops tagging new spans.
	if err := c.ApplyOptions(WithTrace(telemetry.TraceContext{})); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Retr("x.bin"); err != nil {
		t.Fatal(err)
	}
	if got := chub.Spans().ByTrace(tc.TraceID); len(got) != 1 {
		t.Fatalf("span tagged after clear: %+v", got)
	}
}

// TestClientSetTraceOldServer binds a trace against a scripted server
// that answers SITE with 502 ("command not implemented"), the reply a
// pre-TRID build sends: the client must degrade silently.
func TestClientSetTraceOldServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fmt.Fprintf(conn, "220 old server\r\n")
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			verb, _, _ := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
			switch strings.ToUpper(verb) {
			case "USER":
				fmt.Fprintf(conn, "331 password required\r\n")
			case "PASS":
				fmt.Fprintf(conn, "230 logged in\r\n")
			case "TYPE", "MODE":
				fmt.Fprintf(conn, "200 ok\r\n")
			case "QUIT":
				fmt.Fprintf(conn, "221 goodbye\r\n")
				return
			default:
				fmt.Fprintf(conn, "502 command not implemented: %s\r\n", verb)
			}
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID()}
	if err := c.ApplyOptions(WithTrace(tc)); err != nil {
		t.Fatalf("a trace binding against an old server must degrade silently, got %v", err)
	}
}
