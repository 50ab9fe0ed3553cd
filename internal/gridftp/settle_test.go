package gridftp

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/telemetry"
)

// replyProbe wraps a server's control connections so a test can run
// assertions inside the very Write that carries a transfer's completion
// reply — the instant before any client can have read it. Arm it ahead
// of a transfer: the check runs on the next completion reply (226 or
// any 4xx/5xx), on the server's session goroutine, with the reply line.
type replyProbe struct {
	mu    sync.Mutex
	check func(code int, line string)
	fired int
}

func (p *replyProbe) arm(check func(code int, line string)) {
	p.mu.Lock()
	p.check = check
	p.mu.Unlock()
}

// Listen is a Config.ControlListen hook.
func (p *replyProbe) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return probeListener{Listener: ln, probe: p}, nil
}

type probeListener struct {
	net.Listener
	probe *replyProbe
}

func (l probeListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return probeConn{Conn: c, probe: l.probe}, nil
}

type probeConn struct {
	net.Conn
	probe *replyProbe
}

// Write sees one whole reply per call: the session flushes its bufio
// writer once per reply.
func (c probeConn) Write(b []byte) (int, error) {
	if len(b) >= 3 {
		if code, err := strconv.Atoi(string(b[:3])); err == nil && (code == 226 || code >= 400) {
			c.probe.mu.Lock()
			check := c.probe.check
			c.probe.check = nil
			if check != nil {
				c.probe.fired++
			}
			c.probe.mu.Unlock()
			if check != nil {
				check(code, string(b))
			}
		}
	}
	return c.Conn.Write(b)
}

// TestReplyMeansDone pins the completion-ordering contract: inside the
// Write that carries a transfer's completion reply, success or
// failure, the server has already closed the transfer's data listeners,
// cached or closed its data channel, moved the span into the hub's
// ended ring, published delivered bytes, and cut the usage record —
// over a fresh data channel or a cached one. A client acting on the
// reply — a test, a fleet registry scraping between jobs, a trace
// stitcher — can therefore never observe an unfinished server.
func TestReplyMeansDone(t *testing.T) {
	const objSize = 96 << 10
	payload := randomPayload(objSize)
	t.Run("per-transfer-listeners", func(t *testing.T) {
		hub := telemetry.NewHub()
		store := NewMemStore()
		store.Put("x", payload)
		probe := &replyProbe{}
		srv := startServer(t, Config{Store: store, BlockSize: 16 << 10, Telemetry: hub,
			AcceptTimeout: 200 * time.Millisecond, ControlListen: probe.Listen})
		c := login(t, srv.Addr())
		// A third-party source, for transfers into srv.
		cSrc := login(t, startServer(t, Config{Store: store, BlockSize: 16 << 10}).Addr())
		tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), ParentSID: "deadbeef"}
		if err := c.ApplyOptions(WithTrace(tc)); err != nil {
			t.Fatal(err)
		}
		delivered := func(op string) int64 {
			return hub.Counter("gridftp_server_delivered_bytes_total",
				"Payload bytes delivered to the store exactly once, by operation.",
				telemetry.L("op", op)).Value()
		}
		// expect arms the probe for one transfer: want is the completion
		// code, op the server span op, and gain the bytes the transfer
		// must have added to the op's delivered counter.
		expect := func(want int, op string, gain int64) {
			records, spans, base := len(srv.Records()), len(hub.Spans().ByTrace(tc.TraceID)), delivered(op)
			probe.arm(func(code int, line string) {
				if code != want {
					t.Errorf("completion reply %d, want %d", code, want)
				}
				// The reply says "cached" exactly when the channel is,
				// and only a 226 keeps one.
				if cached := int64(strings.Count(line, channelCached)); srv.met.cachedChans.Value() != cached || (code != 226 && cached != 0) {
					t.Errorf("%d: %d channels cached inside the reply write %q", want, srv.met.cachedChans.Value(), line)
				}
				if n := srv.met.listenersOpen.Value(); n != 0 {
					t.Errorf("%d: %d passive listeners open inside the reply write", want, n)
				}
				ended := hub.Spans().ByTrace(tc.TraceID)
				if len(ended) != spans+1 {
					t.Errorf("%d: %d trace-tagged spans ended inside the reply write, want %d", want, len(ended), spans+1)
				} else if sp := ended[len(ended)-1]; sp.Op != op || sp.ParentSID != "deadbeef" {
					t.Errorf("%d: ended span %+v, want op %s under parent deadbeef", want, sp, op)
				}
				if got := delivered(op) - base; got != gain {
					t.Errorf("%d: delivered counter moved %d inside the reply write, want %d", want, got, gain)
				}
				if n := len(srv.Records()); n != records+1 {
					t.Errorf("%d: %d usage records inside the reply write, want %d", want, n, records+1)
				}
			})
		}
		// raw sends one command on the client's control channel.
		raw := func(line string, want int) {
			t.Helper()
			rep, err := c.cmd(line)
			if err != nil || rep.Code != want {
				t.Fatalf("%s: %+v, %v (want %d)", line, rep, err, want)
			}
		}
		pasv := func() string {
			t.Helper()
			addr, err := c.passive()
			if err != nil {
				t.Fatal(err)
			}
			return addr
		}
		final := func(want int) {
			t.Helper()
			if _, err := c.expect("completion", want); err != nil {
				t.Fatal(err)
			}
		}
		for i, tcase := range []struct {
			name string
			code int
			op   string
			gain int64
			run  func()
		}{
			{"RETR 226", 226, "retr", objSize, func() {
				if _, _, err := c.Retr("x"); err != nil {
					t.Fatal(err)
				}
			}},
			{"STOR 226", 226, "stor", objSize, func() {
				if _, err := c.Stor("up.bin", payload); err != nil {
					t.Fatal(err)
				}
			}},
			{"third-party 226", 226, "stor", objSize, func() {
				if err := ThirdParty(cSrc, c, "x", "tp.bin"); err != nil {
					t.Fatal(err)
				}
			}},
			{"third-party 226 on a cached channel", 226, "stor", objSize, func() {
				if cSrc.peer != c || c.peer != cSrc {
					t.Fatal("the previous third-party transfer left no cached channel")
				}
				if err := ThirdParty(cSrc, c, "x", "tp.bin"); err != nil {
					t.Fatal(err)
				}
			}},
			{"550 missing object", 550, "retr", 0, func() {
				pasv()
				raw("RETR missing.bin", 550)
			}},
			{"551 offset beyond EOF", 551, "retr", 0, func() {
				raw("REST 999999999", 350)
				pasv()
				raw("RETR x", 551)
			}},
			{"504 no MODE E", 504, "retr", 0, func() {
				raw("MODE S", 200)
				pasv()
				raw("RETR x", 504)
				raw("MODE E", 200)
			}},
			{"425 accept timeout", 425, "stor", 0, func() {
				pasv()
				raw("STOR up.bin", 150)
				final(425) // no data connection arrives
			}},
			{"426 truncated frame", 426, "stor", 0, func() {
				addr := pasv()
				raw("STOR up.bin", 150)
				dc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				dc.Write(make([]byte, modeEHeaderLen/2)) // half a frame header, then EOF
				dc.Close()
				final(426)
			}},
			{"426 gap at a clean EOD", 426, "stor", 0, func() {
				addr := pasv()
				raw("STOR up.bin", 150)
				dc, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				defer dc.Close()
				// One connection ends on a clean EOD, but the object misses
				// its first bytes: no 226, so the server closes the
				// connection rather than keep it.
				WriteBlock(dc, Block{Offset: 10, Data: []byte("tail")})
				WriteBlock(dc, Block{Desc: DescEOD})
				final(426)
				dc.SetReadDeadline(time.Now().Add(time.Second))
				if n, err := dc.Read(make([]byte, 1)); err != io.EOF {
					t.Errorf("data connection after the 426: read %d, %v; want io.EOF", n, err)
				}
			}},
		} {
			expect(tcase.code, tcase.op, tcase.gain)
			tcase.run()
			probe.mu.Lock()
			fired := probe.fired
			probe.mu.Unlock()
			if fired != i+1 {
				t.Fatalf("%s: probe saw %d completion replies, want %d", tcase.name, fired, i+1)
			}
		}
	})
}

// TestCksmStreamsFromStore: CKSM reads the pinned source a block at a
// time, so checksumming a large on-disk object never materializes it.
func TestCksmStreamsFromStore(t *testing.T) {
	const objSize = 32 << 20
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := randomPayload(objSize)
	want := fmt.Sprintf("%08x", crc32.ChecksumIEEE(data))
	if err := os.WriteFile(filepath.Join(dir, "big.bin"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	data = nil
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := c.Checksum("big.bin")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("CKSM = %s, want %s", got, want)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Fatalf("CKSM of a %d-byte object allocated %d bytes: the object was materialized", objSize, alloc)
	}
}
