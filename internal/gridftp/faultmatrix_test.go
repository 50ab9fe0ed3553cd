package gridftp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
)

// Matrix timing constants: the client deadlines, the server's accept
// and data deadlines, and the injected accept stall. The stall must
// exceed the accept timeout (so the server reports 425) and the control
// timeout must exceed the stall (so the client's drain catches the 425).
const (
	fmControl = 600 * time.Millisecond
	fmData    = 250 * time.Millisecond
	fmAccept  = 250 * time.Millisecond
	fmStall   = 500 * time.Millisecond
)

// fmLogin dials with the matrix deadlines and authenticates.
func fmLogin(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr, WithControlTimeout(fmControl), WithDataTimeout(fmData))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	return c
}

// fmStores is the matrix's store axis: RAM- and disk-backed servers.
var fmStores = []struct {
	name string
	make func(t *testing.T) Store
}{
	{"mem", func(t *testing.T) Store { return NewMemStore() }},
	{"dir", func(t *testing.T) Store {
		d, err := NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}},
}

// TestFaultMatrix crosses every client transfer entry point with every
// injected fault, against both a RAM-backed and a disk-backed server.
// Each cell must (a) return an error, (b) do so within the configured
// deadlines, and (c) for data-path faults, leave the control channel in
// sync so the session remains usable — the paper's REST-restart and
// setup-delay failure scenarios in miniature. The store axis pins that
// the DirStore's streaming write path fails exactly as gracefully as
// the in-memory one: no deadline escape, no desync, no stuck partial
// handle blocking the next command.
func TestFaultMatrix(t *testing.T) {
	planned := func(plan faultnet.ConnPlan) func() *faultnet.Tracker {
		return func() *faultnet.Tracker {
			return &faultnet.Tracker{PlanFor: func(int) *faultnet.ConnPlan { p := plan; return &p }}
		}
	}
	faults := []struct {
		name     string
		tracker  func() *faultnet.Tracker
		stallCtl bool
	}{
		{name: "reset-mid-block",
			tracker: planned(faultnet.ConnPlan{ResetReadAfter: 6000, ResetWriteAfter: 6000})},
		{name: "truncated-eof-frame",
			tracker: planned(faultnet.ConnPlan{TruncateReadAfter: 6000, TruncateWriteAfter: 6000})},
		{name: "accept-stall",
			tracker: func() *faultnet.Tracker { return &faultnet.Tracker{AcceptDelay: fmStall} }},
		{name: "control-stall", stallCtl: true},
	}
	payload := randomPayload(256 << 10)
	ops := []struct {
		name       string
		thirdParty bool
		run        func(c *Client) error
	}{
		{name: "retr", run: func(c *Client) error { _, _, err := c.Retr("x"); return err }},
		{name: "retr-striped", run: func(c *Client) error { _, _, err := c.RetrStriped("x"); return err }},
		{name: "eret", run: func(c *Client) error { _, _, err := c.RetrPartial("x", 1000, 100_000); return err }},
		{name: "rest-retr", run: func(c *Client) error { _, _, err := c.RetrFrom("x", 1000); return err }},
		{name: "stor", run: func(c *Client) error { _, err := c.Stor("up.bin", payload); return err }},
		{name: "stor-striped", run: func(c *Client) error { _, err := c.StorStriped("up.bin", payload); return err }},
		{name: "third-party", thirdParty: true},
	}
	for _, st := range fmStores {
		for _, fault := range faults {
			for _, op := range ops {
				st, fault, op := st, fault, op
				t.Run(st.name+"/"+op.name+"/"+fault.name, func(t *testing.T) {
					t.Parallel()
					newServer := func(faulted bool) *Server {
						store := st.make(t)
						if err := store.Put("x", payload); err != nil {
							t.Fatal(err)
						}
						cfg := Config{Store: store, Stripes: 2, BlockSize: 4 << 10,
							AcceptTimeout: fmAccept, DataTimeout: fmData}
						if faulted && fault.tracker != nil {
							cfg.DataListen = fault.tracker().Listen
						}
						return startServer(t, cfg)
					}
					var clients []*Client
					var run func() error
					if op.thirdParty {
						src := newServer(false)
						dst := newServer(true) // data faults land on the receiving side
						var dstProxy *faultnet.Proxy
						dstAddr := dst.Addr()
						if fault.stallCtl {
							p, err := faultnet.NewProxy(dstAddr)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { p.Close() })
							dstProxy = p
							dstAddr = p.Addr()
						}
						cSrc := fmLogin(t, src.Addr())
						cDst := fmLogin(t, dstAddr)
						clients = []*Client{cSrc, cDst}
						if dstProxy != nil {
							dstProxy.Stall()
						}
						run = func() error { return ThirdParty(cSrc, cDst, "x", "out.bin") }
					} else {
						s := newServer(true)
						addr := s.Addr()
						var proxy *faultnet.Proxy
						if fault.stallCtl {
							p, err := faultnet.NewProxy(addr)
							if err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { p.Close() })
							proxy = p
							addr = p.Addr()
						}
						c := fmLogin(t, addr)
						if err := c.SetParallelism(2); err != nil {
							t.Fatal(err)
						}
						clients = []*Client{c}
						if proxy != nil {
							proxy.Stall()
						}
						run = func() error { return op.run(c) }
					}
					start := time.Now()
					err := run()
					elapsed := time.Since(start)
					if err == nil {
						t.Fatal("operation succeeded under injected fault")
					}
					if elapsed > 3*time.Second {
						t.Fatalf("operation took %v under fault; deadlines did not bound it", elapsed)
					}
					if !fault.stallCtl {
						// Data-path faults must leave every control channel in
						// sync: the next command gets its own reply, not a stale
						// transfer status.
						for i, c := range clients {
							rep, err := c.cmd("NOOP")
							if err != nil || rep.Code != 200 {
								t.Fatalf("client %d desynced after fault: %+v, %v", i, rep, err)
							}
						}
					}
				})
			}
		}
	}
}

// TestFaultMatrixCachedChannelReset is the matrix row "reset on a
// cached channel between transfers", against RAM and disk destinations:
// a pair caches its data channel, whose destination end then resets at
// exactly the first transfer's wire length — on the next transfer's
// first read. That transfer fails within the matrix bound, leaves both
// control channels in sync and both clients forgetting each other, and
// the one after it arms a fresh channel and lands byte-identical.
func TestFaultMatrixCachedChannelReset(t *testing.T) {
	const block = 4 << 10
	payload := randomPayload(256 << 10)
	var blocks []Block
	for off := 0; off < len(payload); off += block {
		blocks = append(blocks, Block{Offset: uint64(off), Data: payload[off : off+block]})
	}
	wire := int64(len(referenceFrames(blocks)))
	for _, st := range fmStores {
		st := st
		t.Run(st.name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Store: NewMemStore(), BlockSize: block, AcceptTimeout: fmAccept, DataTimeout: fmData}
			cfg.Store.Put("x", payload)
			src := startServer(t, cfg)
			tracker := faultnet.ResetFirstConn(wire)
			dstStore := st.make(t)
			cfg.Store, cfg.DataListen = dstStore, tracker.Listen
			dst := startServer(t, cfg)
			cSrc, cDst := fmLogin(t, src.Addr()), fmLogin(t, dst.Addr())
			if err := ThirdParty(cSrc, cDst, "x", "first.bin"); err != nil {
				t.Fatal(err)
			}
			if cSrc.peer != cDst || cDst.peer != cSrc {
				t.Fatal("the first transfer left no cached channel")
			}
			start := time.Now()
			if err := ThirdParty(cSrc, cDst, "x", "second.bin"); err == nil {
				t.Fatal("transfer over a reset cached channel succeeded")
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("failure took %v; deadlines did not bound it", elapsed)
			}
			for i, c := range []*Client{cSrc, cDst} {
				if rep, err := c.cmd("NOOP"); err != nil || rep.Code != 200 {
					t.Fatalf("client %d desynced after the reset: %+v, %v", i, rep, err)
				}
			}
			if cSrc.peer != nil || cDst.peer != nil {
				t.Fatal("a client still names its peer after a failed transfer")
			}
			if err := ThirdParty(cSrc, cDst, "x", "second.bin"); err != nil {
				t.Fatalf("transfer after the reset: %v", err)
			}
			if n := tracker.Total(); n != 2 {
				t.Fatalf("%d data listeners, want 2: the retry did not arm a fresh channel", n)
			}
			if got, err := dstStore.Get("second.bin"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("copy after the reset differs from its source (err %v)", err)
			}
		})
	}
}

// TestClientMethodsBoundedOnSilentServer is the acceptance gate for the
// deadline plumbing: against a server that greets and then never
// replies again, every Client method must return an error within 2× the
// configured deadline.
func TestClientMethodsBoundedOnSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				fmt.Fprintf(conn, "220 silent server ready\r\n")
				io.Copy(io.Discard, conn) // consume commands, reply to nothing
				conn.Close()
			}(conn)
		}
	}()
	const d = 400 * time.Millisecond
	small := []byte("payload")
	methods := []struct {
		name    string
		call    func(c *Client) error
		wantErr bool
	}{
		{"Login", func(c *Client) error { return c.Login("u", "p") }, true},
		{"SetParallelism", func(c *Client) error { return c.SetParallelism(2) }, true},
		{"SetBuffer", func(c *Client) error { return c.SetBuffer(1 << 20) }, true},
		{"Size", func(c *Client) error { _, err := c.Size("x"); return err }, true},
		{"Checksum", func(c *Client) error { _, err := c.Checksum("x"); return err }, true},
		{"List", func(c *Client) error { _, err := c.List(""); return err }, true},
		{"Features", func(c *Client) error { _, err := c.Features(); return err }, true},
		{"Retr", func(c *Client) error { _, _, err := c.Retr("x"); return err }, true},
		{"RetrStriped", func(c *Client) error { _, _, err := c.RetrStriped("x"); return err }, true},
		{"RetrPartial", func(c *Client) error { _, _, err := c.RetrPartial("x", 0, 10); return err }, true},
		{"RetrFrom", func(c *Client) error { _, _, err := c.RetrFrom("x", 0); return err }, true},
		{"Stor", func(c *Client) error { _, err := c.Stor("x", small); return err }, true},
		{"StorStriped", func(c *Client) error { _, err := c.StorStriped("x", small); return err }, true},
		{"ThirdParty", func(c *Client) error {
			c2, err := Dial(c.conn.RemoteAddr().String(), WithControlTimeout(d), WithDataTimeout(d))
			if err != nil {
				return err
			}
			defer c2.conn.Close()
			return ThirdParty(c, c2, "x", "y")
		}, true},
		// Close sends QUIT; it must not hang even though the reply never
		// comes (the conn teardown itself reports no error).
		{"Close", func(c *Client) error { c.Close(); return errBounded }, true},
	}
	for _, m := range methods {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			c, err := Dial(ln.Addr().String(), WithControlTimeout(d), WithDataTimeout(d))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.conn.Close() })
			start := time.Now()
			err = m.call(c)
			elapsed := time.Since(start)
			if m.wantErr && err == nil {
				t.Fatal("method succeeded against a silent server")
			}
			if elapsed >= 2*d {
				t.Fatalf("returned after %v, want < %v (2x deadline)", elapsed, 2*d)
			}
		})
	}
}

// errBounded is a sentinel for matrix entries that only assert timing.
var errBounded = errors.New("bounded")

// TestRetrBoundedWhenServerDiesMidTransfer scripts a server that sends
// half a MODE E frame and then freezes with both channels open — the
// worst case for the old client, which hung first on the data read and
// then forever on the reply drain. Now the error path is bounded by
// data timeout + control timeout, and the undrained channel is marked
// desynced instead of silently mismatching replies.
func TestRetrBoundedWhenServerDiesMidTransfer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dataLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return
		}
		defer dataLn.Close()
		br := bufio.NewReader(conn)
		fmt.Fprintf(conn, "220 moribund server ready\r\n")
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			verb, _, _ := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
			switch strings.ToUpper(verb) {
			case "USER":
				fmt.Fprintf(conn, "331 ok\r\n")
			case "PASS":
				fmt.Fprintf(conn, "230 ok\r\n")
			case "SIZE":
				fmt.Fprintf(conn, "213 1048576\r\n")
			case "PASV":
				fmt.Fprintf(conn, "227 entering passive mode (%s)\r\n", hostPortString(dataLn.Addr()))
			case "RETR":
				fmt.Fprintf(conn, "150 opening data connection\r\n")
				dc, err := dataLn.Accept()
				if err != nil {
					return
				}
				// Half a frame — a header promising 64 KiB, 1000 bytes
				// delivered — then the "crash": everything stays open, mute.
				var hdr [modeEHeaderLen]byte
				binary.BigEndian.PutUint64(hdr[1:9], 64<<10)
				dc.Write(hdr[:])
				dc.Write(make([]byte, 1000))
				<-hang
				dc.Close()
				return
			default:
				fmt.Fprintf(conn, "200 ok\r\n")
			}
		}
	}()
	const d = 400 * time.Millisecond
	c, err := Dial(ln.Addr().String(), WithControlTimeout(d), WithDataTimeout(d))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = c.Retr("ghost.bin")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Retr succeeded against a dead server")
	}
	// Worst case: one stalled data read (data timeout) plus one stalled
	// reply drain (control timeout), with scheduling slack.
	if elapsed > 2*d+200*time.Millisecond {
		t.Fatalf("Retr returned after %v, want <= ~%v", elapsed, 2*d)
	}
	// The failed drain marks the channel desynced: later commands fail
	// fast instead of reading mismatched replies.
	if _, err := c.cmd("NOOP"); !errors.Is(err, ErrDesynced) {
		t.Errorf("after failed drain, cmd error = %v, want ErrDesynced", err)
	}
}

// TestPassiveListenersClosedPerTransfer proves a session looping many
// transfers — successful and rejected alike — never accumulates open
// data listeners (the leak fixed in this change: error paths 550, 551,
// 501, 504 and completed transfers all release them).
func TestPassiveListenersClosedPerTransfer(t *testing.T) {
	var track faultnet.Tracker
	store := NewMemStore()
	store.Put("x", randomPayload(32<<10))
	s := startServer(t, Config{Store: store, Stripes: 2, BlockSize: 8 << 10,
		AcceptTimeout: 200 * time.Millisecond, DataListen: track.Listen})
	c := login(t, s.Addr())
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	payload := randomPayload(16 << 10)
	for i := 0; i < 100; i++ {
		var err error
		switch i % 3 {
		case 0:
			_, _, err = c.Retr("x")
		case 1:
			_, _, err = c.RetrStriped("x")
		default:
			_, err = c.Stor("up.bin", payload)
		}
		if err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
	}
	checkOpen := func(ctx string) {
		t.Helper()
		if n := track.Open(); n != 0 {
			t.Fatalf("%s: %d data listeners still open", ctx, n)
		}
	}
	checkOpen("after 100 transfers on one session")
	if total := track.Total(); total < 100 {
		t.Fatalf("tracker saw only %d listeners; hook not in the transfer path", total)
	}
	// Rejected transfers must release listeners too.
	rs := rawDial(t, s.Addr())
	rs.login(t)
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "RETR missing.bin", "550")
	checkOpen("after RETR of a missing object (550)")
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "ERET X 0 10 x", "501")
	checkOpen("after malformed ERET (501)")
	rs.cmd(t, "REST 999999999", "350")
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "RETR x", "551")
	checkOpen("after RETR beyond EOF (551)")
	rs.cmd(t, "MODE S", "200")
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "RETR x", "504")
	checkOpen("after RETR without MODE E (504)")
	rs.cmd(t, "MODE E", "200")
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "STOR up.bin", "150")
	rs.expect(t, "425") // no data connection arrives
	checkOpen("after STOR accept timeout (425)")
	rs.cmd(t, "NOOP", "200")
}

// TestThirdPartyDstReusableAfterSrcReject is the regression test for
// the ThirdParty desync: when the source rejects RETR after the
// destination's STOR already got its 150, the destination's pending
// 425 must be drained so both control channels remain usable.
func TestThirdPartyDstReusableAfterSrcReject(t *testing.T) {
	want := randomPayload(128 << 10)
	srcStore := NewMemStore()
	srcStore.Put("real.bin", want)
	dstStore := NewMemStore()
	src := startServer(t, Config{Store: srcStore})
	dst := startServer(t, Config{Store: dstStore, AcceptTimeout: 200 * time.Millisecond})
	cSrc := login(t, src.Addr())
	cDst := login(t, dst.Addr())
	err := ThirdParty(cSrc, cDst, "missing.bin", "out.bin")
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Reply.Code != 550 {
		t.Fatalf("ThirdParty(missing) error = %v, want 550 ProtocolError", err)
	}
	// Before the fix the next command on dst read the stale 425 as its
	// own reply. Both channels must now be in sync and reusable.
	for name, c := range map[string]*Client{"src": cSrc, "dst": cDst} {
		if rep, err := c.cmd("NOOP"); err != nil || rep.Code != 200 {
			t.Fatalf("%s control channel desynced: %+v, %v", name, rep, err)
		}
	}
	if err := ThirdParty(cSrc, cDst, "real.bin", "out.bin"); err != nil {
		t.Fatalf("follow-up transfer on the same clients: %v", err)
	}
	got, err := dstStore.Get("out.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("follow-up third-party payload corrupted")
	}
}

// TestStorRejectsOversizedObject: MODE E offsets are attacker-
// controlled 64-bit values; the server must refuse to assemble objects
// beyond MaxObjectSize instead of attempting the allocation.
func TestStorRejectsOversizedObject(t *testing.T) {
	s := startServer(t, Config{Store: NewMemStore(), MaxObjectSize: 64 << 10,
		AcceptTimeout: time.Second})
	rs := rawDial(t, s.Addr())
	rs.login(t)
	for _, offset := range []uint64{1 << 40, ^uint64(0) - 1} { // huge, and uint64-overflowing
		reply := rs.cmd(t, "PASV", "227")
		open := strings.Index(reply, "(")
		closeIdx := strings.LastIndex(reply, ")")
		addr, err := parseHostPort(reply[open+1 : closeIdx])
		if err != nil {
			t.Fatal(err)
		}
		rs.cmd(t, "STOR big.bin", "150")
		dc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		WriteBlock(dc, Block{Offset: offset, Data: []byte("boom")})
		rs.expect(t, "426")
		dc.Close()
		rs.cmd(t, "NOOP", "200")
	}
}
