package gridftp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/telemetry"
)

// rawSession drives the control channel directly for failure injection.
type rawSession struct {
	conn net.Conn
	r    *bufio.Reader
}

func rawDial(t *testing.T, addr string) *rawSession {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	rs := &rawSession{conn: conn, r: bufio.NewReader(conn)}
	rs.expect(t, "220")
	return rs
}

func (rs *rawSession) cmd(t *testing.T, line, wantPrefix string) string {
	t.Helper()
	fmt.Fprintf(rs.conn, "%s\r\n", line)
	return rs.expect(t, wantPrefix)
}

func (rs *rawSession) expect(t *testing.T, wantPrefix string) string {
	t.Helper()
	for {
		line, err := rs.r.ReadString('\n')
		if err != nil {
			t.Fatalf("control channel read: %v", err)
		}
		line = strings.TrimRight(line, "\r\n")
		// Skip multi-line bodies ("NNN-").
		if len(line) >= 4 && line[3] == '-' {
			continue
		}
		if !strings.HasPrefix(line, wantPrefix) {
			t.Fatalf("reply %q, want prefix %q", line, wantPrefix)
		}
		return line
	}
}

func (rs *rawSession) login(t *testing.T) {
	t.Helper()
	rs.cmd(t, "USER u", "331")
	rs.cmd(t, "PASS p", "230")
	rs.cmd(t, "TYPE I", "200")
	rs.cmd(t, "MODE E", "200")
}

func TestRetrWithoutDataConnectionTimesOut(t *testing.T) {
	store := NewMemStore()
	store.Put("x", randomPayload(1024))
	s := startServer(t, Config{Store: store, AcceptTimeout: 200 * time.Millisecond})
	rs := rawDial(t, s.Addr())
	rs.login(t)
	rs.cmd(t, "PASV", "227")
	// RETR announced, but the client never opens the data connection:
	// the server must time out with 425, not hang.
	start := time.Now()
	rs.cmd(t, "RETR x", "150")
	rs.expect(t, "425")
	if time.Since(start) > 5*time.Second {
		t.Error("timeout took too long")
	}
	// The session stays usable afterwards.
	rs.cmd(t, "NOOP", "200")
}

func TestRetrWithoutPassiveRejected(t *testing.T) {
	store := NewMemStore()
	store.Put("x", randomPayload(16))
	s := startServer(t, Config{Store: store})
	rs := rawDial(t, s.Addr())
	rs.login(t)
	rs.cmd(t, "RETR x", "150")
	rs.expect(t, "425") // no PASV/SPAS/PORT issued
}

func TestClientAbortsMidTransfer(t *testing.T) {
	store := NewMemStore()
	store.Put("big", randomPayload(8<<20))
	s := startServer(t, Config{Store: store, BlockSize: 64 << 10})
	rs := rawDial(t, s.Addr())
	rs.login(t)
	reply := rs.cmd(t, "PASV", "227")
	open := strings.Index(reply, "(")
	closeIdx := strings.LastIndex(reply, ")")
	addr, err := parseHostPort(reply[open+1 : closeIdx])
	if err != nil {
		t.Fatal(err)
	}
	rs.cmd(t, "RETR big", "150")
	dc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Read a little, then slam the connection shut mid-stream.
	buf := make([]byte, 32<<10)
	if _, err := dc.Read(buf); err != nil {
		t.Fatal(err)
	}
	dc.Close()
	line := rs.expect(t, "") // either 426 (abort seen) or 226 (already buffered)
	if !strings.HasPrefix(line, "426") && !strings.HasPrefix(line, "226") {
		t.Fatalf("reply after abort = %q", line)
	}
	// Control channel survives; a fresh transfer works.
	rs.cmd(t, "NOOP", "200")
}

func TestStorClientDiesMidUpload(t *testing.T) {
	s := startServer(t, Config{Store: NewMemStore(), AcceptTimeout: 500 * time.Millisecond})
	rs := rawDial(t, s.Addr())
	rs.login(t)
	reply := rs.cmd(t, "PASV", "227")
	open := strings.Index(reply, "(")
	closeIdx := strings.LastIndex(reply, ")")
	addr, err := parseHostPort(reply[open+1 : closeIdx])
	if err != nil {
		t.Fatal(err)
	}
	rs.cmd(t, "STOR up.bin", "150")
	dc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Send a partial frame (header promising more bytes than delivered).
	WriteBlock(dc, Block{Offset: 0, Data: randomPayload(1024)})
	hdr := []byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4}
	dc.Write(hdr) // promises 65536 bytes, sends none
	dc.Close()
	rs.expect(t, "426")
	rs.cmd(t, "NOOP", "200")
}

func TestGarbageControlChannelInput(t *testing.T) {
	s := startServer(t, Config{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	if _, err := r.ReadString('\n'); err != nil { // greeting
		t.Fatal(err)
	}
	// Binary junk followed by a valid command: the server should keep
	// parsing line by line without crashing.
	conn.Write([]byte("\x00\x01\x02 binary junk\r\nNOOP\r\n"))
	deadline := time.Now().Add(2 * time.Second)
	conn.SetReadDeadline(deadline)
	saw200 := false
	for time.Now().Before(deadline) {
		line, err := r.ReadString('\n')
		if err != nil {
			break
		}
		if strings.HasPrefix(line, "200") {
			saw200 = true
			break
		}
	}
	if !saw200 {
		t.Error("server did not recover from garbage input")
	}
}

func TestManyConcurrentSessions(t *testing.T) {
	store := NewMemStore()
	store.Put("x", randomPayload(128<<10))
	s := startServer(t, Config{Store: store})
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			c, err := Dial(s.Addr())
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			if err := c.Login("u", "p"); err != nil {
				done <- err
				return
			}
			if err := c.SetParallelism(2); err != nil {
				done <- err
				return
			}
			for j := 0; j < 3; j++ {
				if _, _, err := c.Retr("x"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Records()); got != 24 {
		t.Errorf("server logged %d transfers, want 24", got)
	}
}

// TestConcurrentStorsOfOneObjectSerialize: a STOR of an object another
// session is still storing waits for that STOR to settle, rather than
// interleaving regions with it (which fails one of the two), and gives
// up with a 450 after the accept timeout.
func TestConcurrentStorsOfOneObjectSerialize(t *testing.T) {
	hub := telemetry.NewHub()
	store := NewMemStore()
	s := startServer(t, Config{Store: store, Telemetry: hub, AcceptTimeout: 300 * time.Millisecond})
	pasv := func(rs *rawSession) string {
		t.Helper()
		reply := rs.cmd(t, "PASV", "227")
		addr, err := parseHostPort(reply[strings.Index(reply, "(")+1 : strings.LastIndex(reply, ")")])
		if err != nil {
			t.Fatal(err)
		}
		return addr
	}
	send := func(addr string, blocks ...Block) net.Conn {
		t.Helper()
		dc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			WriteBlock(dc, b)
		}
		return dc
	}
	a, b := rawDial(t, s.Addr()), rawDial(t, s.Addr())
	a.login(t)
	b.login(t)
	addrA := pasv(a)
	a.cmd(t, "STOR x", "150")
	da := send(addrA, Block{Data: []byte("first ")}) // a holds x mid-transfer
	pasv(b)
	b.cmd(t, "STOR x", "450")
	addrB := pasv(b)
	fmt.Fprintf(b.conn, "STOR x\r\n")
	stors := hub.Counter("gridftp_server_commands_total", "", telemetry.L("verb", "stor"))
	for stors.Value() < 3 {
		time.Sleep(time.Millisecond)
	}
	WriteBlock(da, Block{Offset: 6, Data: []byte("writer")})
	WriteBlock(da, Block{Desc: DescEOD})
	da.Close()
	a.expect(t, "226")
	b.expect(t, "150")
	send(addrB, Block{Data: []byte("second writer")}, Block{Desc: DescEOD}).Close()
	b.expect(t, "226")
	if got, err := store.Get("x"); err != nil || string(got) != "second writer" {
		t.Fatalf("x = %q, %v; want the second writer's bytes", got, err)
	}
}
