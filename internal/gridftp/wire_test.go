package gridftp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/telemetry"
)

// wireRecorder is a Config.DataListen or ControlListen hook that keeps,
// for every connection the server accepts, the bytes it wrote and read
// and the number of Write calls it made. listen, when set, opens the
// listeners it records (default net.Listen).
type wireRecorder struct {
	listen func(network, addr string) (net.Listener, error)
	mu     sync.Mutex
	conns  []*wireConn
}

func (w *wireRecorder) Listen(network, addr string) (net.Listener, error) {
	listen := w.listen
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen(network, addr)
	if err != nil {
		return nil, err
	}
	return wireListener{Listener: ln, rec: w}, nil
}

// take returns the connections recorded so far and forgets them.
func (w *wireRecorder) take() []*wireConn {
	w.mu.Lock()
	defer w.mu.Unlock()
	conns := w.conns
	w.conns = nil
	return conns
}

type wireListener struct {
	net.Listener
	rec *wireRecorder
}

func (l wireListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := &wireConn{Conn: c}
	l.rec.mu.Lock()
	l.rec.conns = append(l.rec.conns, wc)
	l.rec.mu.Unlock()
	return wc, nil
}

type wireConn struct {
	net.Conn
	mu      sync.Mutex
	written bytes.Buffer
	read    bytes.Buffer
	writes  int
}

func (c *wireConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.written.Write(p[:n])
	c.writes++
	c.mu.Unlock()
	return n, err
}

// seen returns what the connection wrote and read, and its Write count.
func (c *wireConn) seen() (written, read []byte, writes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written.Bytes(), c.read.Bytes(), c.writes
}

func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.read.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

// referenceFrames is what WriteBlock sends for blocks followed by EOD.
func referenceFrames(blocks []Block) []byte {
	var buf bytes.Buffer
	for _, b := range blocks {
		WriteBlock(&buf, b)
	}
	WriteBlock(&buf, Block{Desc: DescEOD})
	return buf.Bytes()
}

// TestFramesOnWireUnchanged pins the bytes on every data connection to
// WriteBlock's reference frames, whatever the engines do to build them:
// server RETR stripes (block i, i+n, ... then EOD) and client StorFrom
// uploads (each connection's share of the blocks, then EOD), at 1–3
// streams, object sizes around the block size and past framesPerWrite
// blocks, and block sizes below and at minIOBytes. Server RETR packs
// framesPerWrite blocks into each Write (one per block at 64 KiB), its
// EOD riding the last one.
func TestFramesOnWireUnchanged(t *testing.T) {
	for _, block := range []int{4 << 10, minIOBytes} {
		t.Run(fmt.Sprintf("block %d", block), func(t *testing.T) { testFramesOnWire(t, block) })
	}
}

func testFramesOnWire(t *testing.T, block int) {
	rec := &wireRecorder{}
	store := NewMemStore()
	s := startServer(t, Config{Store: store, BlockSize: block, DataListen: rec.Listen})
	// A window of four blocks makes the client's upload blocks the
	// server's block size too.
	c := loginStream(t, s.Addr(), WithWindow(4*block))
	ctx := context.Background()
	for _, size := range []int{0, 1, block - 1, block, 3*block + 5, 40*block + 3} {
		payload := randomPayload(size)
		store.Put("obj", payload)
		var blocks []Block
		for off := 0; off < size; off += block {
			blocks = append(blocks, Block{Offset: uint64(off), Data: payload[off:min(off+block, size)]})
		}
		for streams := 1; streams <= 3; streams++ {
			if err := c.SetParallelism(streams); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("size %d, %d streams", size, streams)

			rec.take()
			var got bytes.Buffer
			if _, err := c.RetrTo(ctx, "obj", &got); err != nil || !bytes.Equal(got.Bytes(), payload) {
				t.Fatalf("%s: RETR err %v, payload intact %v", name, err, bytes.Equal(got.Bytes(), payload))
			}
			var want, sent []string
			wantWrites := map[string]int{}
			for i := 0; i < streams; i++ {
				var stripe []Block
				for k := i; k < len(blocks); k += streams {
					stripe = append(stripe, blocks[k])
				}
				frames := string(referenceFrames(stripe))
				want = append(want, frames)
				per := framesPerWrite(block)
				wantWrites[frames] = max((len(stripe)+per-1)/per, 1)
			}
			for _, wc := range rec.take() {
				written, _, writes := wc.seen()
				frames := string(written)
				sent = append(sent, frames)
				if writes != wantWrites[frames] {
					t.Errorf("%s: RETR connection sent its %d bytes in %d writes, want %d",
						name, len(frames), writes, wantWrites[frames])
				}
			}
			slices.Sort(want)
			slices.Sort(sent)
			if !slices.Equal(sent, want) {
				t.Fatalf("%s: RETR frames differ from WriteBlock's", name)
			}

			if _, err := c.StorFrom(ctx, "up", bytes.NewReader(payload), int64(size)); err != nil {
				t.Fatalf("%s: STOR: %v", name, err)
			}
			// Blocks go to whichever connection is free, so each
			// connection's bytes must be WriteBlock's frames of the
			// blocks it carried, and together they carry every block once.
			var carried []Block
			conns := rec.take()
			if len(conns) != streams {
				t.Fatalf("%s: STOR used %d connections", name, len(conns))
			}
			for _, wc := range conns {
				_, read, _ := wc.seen()
				r := bytes.NewReader(read)
				var mine []Block
				for {
					b, err := ReadBlock(r)
					if err != nil {
						t.Fatalf("%s: STOR connection: %v", name, err)
					}
					if b.Desc&DescEOD != 0 {
						break
					}
					mine = append(mine, b)
				}
				if r.Len() != 0 || !bytes.Equal(read, referenceFrames(mine)) {
					t.Fatalf("%s: STOR frames differ from WriteBlock's", name)
				}
				carried = append(carried, mine...)
			}
			slices.SortFunc(carried, func(a, b Block) int { return int(a.Offset) - int(b.Offset) })
			if fmt.Sprint(carried) != fmt.Sprint(blocks) {
				t.Fatalf("%s: STOR carried %d blocks, not the object's %d", name, len(carried), len(blocks))
			}
		}
	}
}

// verbs counts, by verb, the commands read so far on every connection
// the recorder has seen: on a ControlListen hook, what clients sent.
func (w *wireRecorder) verbs() map[string]int {
	w.mu.Lock()
	conns := slices.Clone(w.conns)
	w.mu.Unlock()
	n := map[string]int{}
	for _, c := range conns {
		_, read, _ := c.seen()
		for _, line := range strings.Split(string(read), "\r\n") {
			if verb, _, _ := strings.Cut(line, " "); verb != "" {
				n[verb]++
			}
		}
	}
	return n
}

// last returns the newest recorded connection and how many bytes it has
// read; nil and 0 before any.
func (w *wireRecorder) last() (*wireConn, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.conns) == 0 {
		return nil, 0
	}
	c := w.conns[len(w.conns)-1]
	_, read, _ := c.seen()
	return c, len(read)
}

// cachePair is a source and a destination server whose control
// conversations, destination data connections and listeners are on
// record, for the data-channel cache tests.
type cachePair struct {
	ctl, data              *wireRecorder
	track                  *faultnet.Tracker
	dstStore               *MemStore
	srcHub, dstHub, cliHub *telemetry.Hub
	src, dst               *Server
	payload                []byte
	block                  int
}

func newCachePair(t *testing.T) *cachePair {
	p := &cachePair{ctl: &wireRecorder{}, track: &faultnet.Tracker{}, dstStore: NewMemStore(),
		srcHub: telemetry.NewHub(), dstHub: telemetry.NewHub(), cliHub: telemetry.NewHub(),
		payload: randomPayload(40<<10 + 7), block: 16 << 10}
	p.data = &wireRecorder{listen: p.track.Listen}
	srcStore := NewMemStore()
	srcStore.Put("obj", p.payload)
	p.src = startServer(t, Config{Store: srcStore, BlockSize: p.block, ControlListen: p.ctl.Listen, Telemetry: p.srcHub})
	p.dst = startServer(t, Config{Store: p.dstStore, BlockSize: p.block, ControlListen: p.ctl.Listen,
		DataListen: p.data.Listen, Telemetry: p.dstHub})
	return p
}

func (p *cachePair) client(t *testing.T, s *Server) *Client {
	return loginStream(t, s.Addr(), WithTelemetry(p.cliHub))
}

// thirdParty runs ThirdPartyFrom(src, dst, "obj", name, offset) and checks
// that it reused the pair's cached channel exactly when reuse is set —
// no PASV or PORT on any control channel, no listener opened, no data
// connection made — and otherwise armed a fresh one. Either way the
// bytes dst read for it are WriteBlock's reference frames of the region
// and the copy is intact.
func (p *cachePair) thirdParty(t *testing.T, src, dst *Client, name string, offset int64, reuse bool) {
	t.Helper()
	verbs, listeners := p.ctl.verbs(), p.track.Total()
	prev, seen := p.data.last()
	if _, err := ThirdPartyFrom(src, dst, "obj", name, offset); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	after := p.ctl.verbs()
	armed := after["PASV"] - verbs["PASV"] + after["PORT"] - verbs["PORT"]
	conn, _ := p.data.last()
	if reuse && (armed != 0 || p.track.Total() != listeners || conn != prev) {
		t.Fatalf("%s: %d PASV/PORT, %d new listeners, new connection %v; want the cached channel",
			name, armed, p.track.Total()-listeners, conn != prev)
	}
	if !reuse && (armed != 2 || conn == prev) {
		t.Fatalf("%s: %d PASV/PORT, new connection %v; want a fresh channel", name, armed, conn != prev)
	}
	if conn != prev {
		seen = 0
	}
	var blocks []Block
	for off := int(offset); off < len(p.payload); off += p.block {
		blocks = append(blocks, Block{Offset: uint64(off), Data: p.payload[off:min(off+p.block, len(p.payload))]})
	}
	if _, read, _ := conn.seen(); !bytes.Equal(read[seen:], referenceFrames(blocks)) {
		t.Fatalf("%s: data bytes differ from WriteBlock's reference frames", name)
	}
	if got, err := p.dstStore.Get(name); err != nil || !bytes.Equal(got, p.payload) {
		t.Fatalf("%s: copy differs from its source (err %v)", name, err)
	}
}

// TestThirdPartyReusesCachedChannel: once a pair's transfer ends with
// both data ends cached, the pair's next transfers put no PASV or PORT
// on either control channel, open no listener, make no connection, and
// send WriteBlock's frames over the kept one; both servers and the
// client count each reuse.
func TestThirdPartyReusesCachedChannel(t *testing.T) {
	p := newCachePair(t)
	a, b := p.client(t, p.src), p.client(t, p.dst)
	p.thirdParty(t, a, b, "first", 0, false)
	p.thirdParty(t, a, b, "second", 0, true)
	p.thirdParty(t, a, b, "third", 0, true)
	for name, hub := range map[string]*telemetry.Hub{"src": p.srcHub, "dst": p.dstHub} {
		reuses := hub.Counter("gridftp_server_data_channel_reuses_total", "").Value()
		conns := hub.Counter("gridftp_server_data_connections_total", "").Value()
		cached := hub.Gauge("gridftp_server_data_channels_cached", "").Value()
		if reuses != 2 || conns != 1 || cached != 1 {
			t.Errorf("%s: %d reuses, %d data connections, %d cached; want 2, 1, 1", name, reuses, conns, cached)
		}
	}
	if n := p.cliHub.Counter("gridftp_client_data_channel_reuses_total", "").Value(); n != 2 {
		t.Errorf("client counted %d reuses, want 2", n)
	}
}

// TestCachedChannelNeverCrossesPairs walks the ways a kept channel could
// reach a transfer it does not belong to: the source used for something
// else, the destination used with another source, session state changed
// between jobs, a resumed transfer. Each transfer either arms a fresh
// channel or runs byte-exactly over its own pair's.
func TestCachedChannelNeverCrossesPairs(t *testing.T) {
	t.Run("RetrTo on src between jobs", func(t *testing.T) {
		p := newCachePair(t)
		a, b := p.client(t, p.src), p.client(t, p.dst)
		p.thirdParty(t, a, b, "x", 0, false)
		if _, err := a.RetrTo(context.Background(), "obj", io.Discard); err != nil {
			t.Fatal(err)
		}
		p.thirdParty(t, a, b, "x", 0, false)
		p.thirdParty(t, a, b, "x", 0, true)
	})
	t.Run("partner swap", func(t *testing.T) {
		p := newCachePair(t)
		a, c, b := p.client(t, p.src), p.client(t, p.src), p.client(t, p.dst)
		p.thirdParty(t, a, b, "x", 0, false)
		p.thirdParty(t, c, b, "x", 0, false)
		p.thirdParty(t, a, b, "x", 0, false)
		p.thirdParty(t, a, b, "x", 0, true)
	})
	t.Run("SITE RATE and TRID between jobs", func(t *testing.T) {
		p := newCachePair(t)
		a, b := p.client(t, p.src), p.client(t, p.dst)
		p.thirdParty(t, a, b, "x", 0, false)
		tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), ParentSID: "feedface"}
		if err := a.ApplyOptions(WithRate(8e9), WithTrace(tc)); err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyOptions(WithTrace(tc)); err != nil {
			t.Fatal(err)
		}
		p.thirdParty(t, a, b, "x", 0, true)
		// The kept channel was wrapped afresh: paced at the new session
		// rate on src, under the new trace on dst.
		if n := p.srcHub.Counter("gridftp_shaped_bytes_total", "", telemetry.L("op", "retr")).Value(); n < int64(len(p.payload)) {
			t.Errorf("src shaped %d bytes of a %d-byte transfer", n, len(p.payload))
		}
		if spans := p.dstHub.Spans().ByTrace(tc.TraceID); len(spans) != 1 || spans[0].Op != "stor" {
			t.Errorf("dst spans under the new trace: %+v", spans)
		}
	})
	t.Run("REST resume", func(t *testing.T) {
		p := newCachePair(t)
		a, b := p.client(t, p.src), p.client(t, p.dst)
		p.thirdParty(t, a, b, "x", 0, false)
		const off = 20<<10 + 3
		p.dstStore.Put("resumed", p.payload[:off])
		p.thirdParty(t, a, b, "resumed", off, true)
	})
}
