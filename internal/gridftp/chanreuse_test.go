package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/telemetry"
)

// reuseServer starts a server with telemetry over store, its data
// connections on record, and a logged-in two-stream client of it.
func reuseServer(t *testing.T, store Store, opts ...Option) (*telemetry.Hub, *wireRecorder, *Client) {
	t.Helper()
	hub, rec := telemetry.NewHub(), &wireRecorder{}
	s := startServer(t, Config{Store: store, BlockSize: 64 << 10, Telemetry: hub, DataListen: rec.Listen})
	c := loginStream(t, s.Addr(), opts...)
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	return hub, rec, c
}

// verbCount is the server's count of one control verb.
func verbCount(hub *telemetry.Hub, verb string) int64 {
	return hub.Counter("gridftp_server_commands_total", "", telemetry.L("verb", verb)).Value()
}

// TestRepeatedTransfersReuseDataChannels: back-to-back two-stream
// transfers on one session, downloads then uploads, run over the two
// data connections the first one opened: one PASV, two accepted
// connections, nine reuses, both ends holding two cached channels, and
// every transfer byte-exact. A changed parallelism drops the cache on
// both ends, and the next transfer arms afresh at the new count.
func TestRepeatedTransfersReuseDataChannels(t *testing.T) {
	store := NewMemStore()
	payload := randomPayload(1<<20 + 7)
	store.Put("obj", payload)
	hub, _, c := reuseServer(t, store)
	ctx := context.Background()
	retr := func(i int) {
		t.Helper()
		var got bytes.Buffer
		if _, err := c.RetrTo(ctx, "obj", &got); err != nil || !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("RetrTo %d: %v, intact %v", i, err, bytes.Equal(got.Bytes(), payload))
		}
	}
	for i := 0; i < 5; i++ {
		retr(i)
	}
	for i := 0; i < 5; i++ {
		up := slices.Clone(payload[i:])
		if _, err := c.StorFrom(ctx, "up", bytes.NewReader(up), int64(len(up))); err != nil {
			t.Fatalf("StorFrom %d: %v", i, err)
		}
		if got, err := store.Get("up"); err != nil || !bytes.Equal(got, up) {
			t.Fatalf("StorFrom %d: stored object differs (err %v)", i, err)
		}
	}
	check := func(when string, pasv, conns, reuses, cached int64) {
		t.Helper()
		got := [4]int64{verbCount(hub, "pasv"),
			hub.Counter("gridftp_server_data_connections_total", "").Value(),
			hub.Counter("gridftp_server_data_channel_reuses_total", "").Value(),
			hub.Gauge("gridftp_server_data_channels_cached", "").Value()}
		if want := [4]int64{pasv, conns, reuses, cached}; got != want {
			t.Fatalf("%s: PASV, data connections, reuses, cached = %v, want %v", when, got, want)
		}
	}
	check("after 5 RETR and 5 STOR", 1, 2, 9, 2)
	if len(c.chans) != 2 {
		t.Fatalf("client kept %d data connections, want 2", len(c.chans))
	}
	if err := c.SetParallelism(3); err != nil {
		t.Fatal(err)
	}
	check("after a changed parallelism", 1, 2, 9, 0)
	if c.chans != nil {
		t.Fatal("client kept its data connections past a changed parallelism")
	}
	retr(5)
	check("after a RETR at 3 streams", 2, 5, 9, 3)
}

// TestRepeatedRetrAllocBudget: once a session's data channels are
// cached, a two-stream RetrTo of an 8 MiB MemStore object into
// io.Discard, and a StorFrom over it, allocates at most 64 KiB across
// client and server: no frame reader or frame buffer, on either end,
// is made again. Each costs about 1.1 MB when every transfer opens its
// own connections.
func TestRepeatedRetrAllocBudget(t *testing.T) {
	const size, ops, budget = 8 << 20, 3, 64 << 10
	store := NewMemStore()
	payload := randomPayload(size)
	store.Put("down.bin", payload)
	c := loginStream(t, startServer(t, Config{Store: store}).Addr())
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	measure := func(what string, op func() error) {
		t.Helper()
		if err := op(); err != nil { // the warm-up: the cache and the metric families
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			if err := op(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / ops; per > budget {
			t.Errorf("a repeated %d-byte %s allocates %d bytes, budget %d", size, what, per, budget)
		}
	}
	measure("RetrTo", func() error {
		stats, err := c.RetrTo(ctx, "down.bin", io.Discard)
		if err == nil && stats.Bytes != size {
			err = fmt.Errorf("RetrTo delivered %d bytes", stats.Bytes)
		}
		return err
	})
	measure("StorFrom", func() error {
		_, err := c.StorFrom(ctx, "up.bin", bytes.NewReader(payload), size)
		return err
	})
	if got, err := store.Get("up.bin"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("stored object differs (err %v)", err)
	}
}

// TestCachedDataChannelResetBetweenTransfers resets one of a session's
// two cached data connections between transfers. When the client's end
// has a socket to peek, the next transfer finds the reset before it
// starts, drops both and succeeds over one fresh PASV. When it has none
// (a WithDialFunc wrapper), that one transfer fails and the next arms
// afresh. Either way the control channel stays in sync.
func TestCachedDataChannelResetBetweenTransfers(t *testing.T) {
	payload := randomPayload(512<<10 + 3)
	wrapped := WithDialFunc(func(network, addr string) (net.Conn, error) {
		c, err := net.Dial(network, addr)
		return struct{ net.Conn }{c}, err
	})
	for _, tc := range []struct {
		name    string
		opts    []Option
		xfer    func(c *Client, store *MemStore) error
		failing bool
	}{
		{name: "retr", xfer: retrExact(payload)},
		{name: "stor", xfer: storExact(payload)},
		{name: "retr without a descriptor", opts: []Option{wrapped}, xfer: retrExact(payload), failing: true},
		{name: "stor without a descriptor", opts: []Option{wrapped}, xfer: storExact(payload), failing: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := NewMemStore()
			store.Put("obj", payload)
			hub, rec, c := reuseServer(t, store, tc.opts...)
			if err := tc.xfer(c, store); err != nil {
				t.Fatal(err)
			}
			conns := rec.take()
			if len(conns) != 2 || len(c.chans) != 2 {
				t.Fatalf("first transfer: %d server connections, %d kept by the client; want 2, 2", len(conns), len(c.chans))
			}
			conns[0].Conn.(*net.TCPConn).SetLinger(0)
			conns[0].Conn.Close()
			if !tc.failing {
				// The reset reaches the client's socket before its next peek.
				deadline := time.Now().Add(5 * time.Second)
				for idleChans(c.chans) && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			err := tc.xfer(c, store)
			if rep, nerr := c.cmd("NOOP"); nerr != nil || rep.Code != 200 {
				t.Fatalf("desynced after the reset: %+v, %v", rep, nerr)
			}
			if tc.failing {
				if err == nil {
					t.Fatal("a transfer over the reset connection succeeded")
				}
				err = tc.xfer(c, store)
			}
			if err != nil {
				t.Fatalf("transfer after the reset: %v", err)
			}
			if n, fresh := verbCount(hub, "pasv"), len(rec.take()); n != 2 || fresh != 2 {
				t.Fatalf("%d PASV and %d new connections in all, want 2 and 2", n, fresh)
			}
		})
	}
}

func retrExact(payload []byte) func(*Client, *MemStore) error {
	return func(c *Client, _ *MemStore) error {
		var got bytes.Buffer
		if _, err := c.RetrTo(context.Background(), "obj", &got); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), payload) {
			return errors.New("retrieved bytes differ")
		}
		return nil
	}
}

func storExact(payload []byte) func(*Client, *MemStore) error {
	return func(c *Client, store *MemStore) error {
		if _, err := c.StorFrom(context.Background(), "up", bytes.NewReader(payload), int64(len(payload))); err != nil {
			return err
		}
		if got, err := store.Get("up"); err != nil || !bytes.Equal(got, payload) {
			return fmt.Errorf("stored object differs (err %v)", err)
		}
		return nil
	}
}

// TestRetrieveSendsNoSize: the client takes a retrieval's length from
// the 150's "(N bytes)", so RetrTo, RetrToAt and ERET on one session
// send no SIZE. A REST past the end still gets the server's 551.
func TestRetrieveSendsNoSize(t *testing.T) {
	store := NewMemStore()
	payload := randomPayload(300<<10 + 5)
	store.Put("obj", payload)
	hub, _, c := reuseServer(t, store)
	ctx := context.Background()
	for _, off := range []int64{0, 1000, int64(len(payload))} {
		var got bytes.Buffer
		if _, err := c.RetrToAt(ctx, "obj", &got, Region{Offset: off}); err != nil || !bytes.Equal(got.Bytes(), payload[off:]) {
			t.Fatalf("RetrToAt %d: %v", off, err)
		}
		part, _, err := fetch(c, "obj", Region{Offset: off / 2, Length: 70_000})
		if want := payload[off/2 : min(off/2+70_000, int64(len(payload)))]; err != nil || !bytes.Equal(part, want) {
			t.Fatalf("ERET at %d: %v", off/2, err)
		}
	}
	if n := verbCount(hub, "size"); n != 0 {
		t.Fatalf("retrievals sent %d SIZE commands, want 0", n)
	}
	var pe *ProtocolError
	_, err := c.RetrToAt(ctx, "obj", io.Discard, Region{Offset: int64(len(payload)) + 1})
	if !errors.As(err, &pe) || pe.Reply.Code != 551 || pe.Reply.Text != "offset beyond object size" {
		t.Fatalf("REST past the end: %v, want the server's 551", err)
	}
}

// TestRetrieveChecksSizeWhenUnannounced runs RetrTo against a scripted
// server whose 150 carries no length: the client sends SIZE after the
// 226 and fails a delivery shorter than SIZE says.
func TestRetrieveChecksSizeWhenUnannounced(t *testing.T) {
	payload := randomPayload(10_000)
	for _, tc := range []struct {
		size int
		ok   bool
	}{{len(payload), true}, {len(payload) + 1, false}} {
		verbs, addr := startScriptedRetr(t, payload, tc.size)
		c := loginStream(t, addr)
		var got bytes.Buffer
		_, err := c.RetrTo(context.Background(), "obj", &got)
		if tc.ok != (err == nil) || (tc.ok && !bytes.Equal(got.Bytes(), payload)) {
			t.Fatalf("SIZE %d: err %v, intact %v", tc.size, err, bytes.Equal(got.Bytes(), payload))
		}
		if !tc.ok && !errors.Is(err, ErrDataProtocol) {
			t.Fatalf("SIZE %d: err %v, want ErrDataProtocol", tc.size, err)
		}
		if err := c.Noop(); err != nil {
			t.Fatal(err)
		}
		if got, want := verbs(), []string{"USER", "PASS", "TYPE", "MODE", "PASV", "RETR", "SIZE", "NOOP"}; !slices.Equal(got, want) {
			t.Fatalf("wire commands = %v, want %v", got, want)
		}
	}
}

// startScriptedRetr serves one session whose RETR sends payload over one
// PASV connection after a 150 with no length, and whose SIZE says size.
func startScriptedRetr(t *testing.T, payload []byte, size int) (verbs func() []string, addr string) {
	t.Helper()
	w := &wireLog{}
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
		fmt.Fprintf(conn, "220 scripted\r\n")
		r := bufio.NewReader(conn)
		var data net.Listener
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			line = strings.TrimRight(line, "\r\n")
			w.mu.Lock()
			w.lines = append(w.lines, line)
			w.mu.Unlock()
			switch verb, _, _ := strings.Cut(line, " "); verb {
			case "USER":
				fmt.Fprintf(conn, "331 password required\r\n")
			case "PASS":
				fmt.Fprintf(conn, "230 logged in\r\n")
			case "PASV":
				if data, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
					return
				}
				defer data.Close()
				fmt.Fprintf(conn, "227 entering passive mode (%s)\r\n", hostPortString(data.Addr()))
			case "RETR":
				fmt.Fprintf(conn, "150 opening data connection\r\n")
				dc, err := data.Accept()
				if err != nil {
					return
				}
				WriteBlock(dc, Block{Data: payload})
				WriteBlock(dc, Block{Desc: DescEOD})
				dc.Close()
				fmt.Fprintf(conn, "226 transfer complete\r\n")
			case "SIZE":
				fmt.Fprintf(conn, "213 %d\r\n", size)
			default:
				fmt.Fprintf(conn, "200 ok\r\n")
			}
		}
	}()
	return w.verbs, ln.Addr().String()
}
