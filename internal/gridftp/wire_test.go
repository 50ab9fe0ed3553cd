package gridftp

import (
	"bytes"
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
// server RETR downloads and client StorFrom uploads, at 1–3 streams,
// object sizes around the block size and past framesPerWrite blocks,
// and block sizes below and at minIOBytes. Both directions send each
// batch on whichever connection claims it, so each connection carries
// its blocks at ascending offsets, then EOD, and together they carry
// every block once. A RETR packs framesPerWrite blocks into each Write
// (one per block at 64 KiB): the batch that ends the object carries its
// connection's EOD, and every other connection sends a bare one.
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
			retrConns := rec.take()
			var carried []Block
			writes := 0
			for _, wc := range retrConns {
				written, _, n := wc.seen()
				carried = append(carried, framesCarried(t, name+": RETR", written)...)
				writes += n
			}
			checkCarried(t, name+": RETR", carried, blocks)
			per := framesPerWrite(block)
			if want := max((len(blocks)+per-1)/per, 1) + streams - 1; writes != want {
				t.Errorf("%s: RETR connections made %d writes, want %d", name, writes, want)
			}

			if _, err := c.StorFrom(ctx, "up", bytes.NewReader(payload), int64(size)); err != nil {
				t.Fatalf("%s: STOR: %v", name, err)
			}
			// The STOR runs over the channels the RETR kept, which read
			// nothing before it.
			conns := append(retrConns, rec.take()...)
			if len(conns) != streams {
				t.Fatalf("%s: STOR used %d connections", name, len(conns))
			}
			carried = carried[:0]
			for _, wc := range conns {
				_, read, _ := wc.seen()
				carried = append(carried, framesCarried(t, name+": STOR", read)...)
			}
			checkCarried(t, name+": STOR", carried, blocks)
		}
	}
}

// framesCarried returns the blocks one data connection's bytes carry,
// which must be WriteBlock's frames of them at ascending offsets, then
// one EOD.
func framesCarried(t *testing.T, what string, wire []byte) []Block {
	t.Helper()
	r := bytes.NewReader(wire)
	var mine []Block
	for {
		b, err := ReadBlock(r)
		if err != nil {
			t.Fatalf("%s connection: %v", what, err)
		}
		if b.Desc&DescEOD != 0 {
			break
		}
		if k := len(mine); k > 0 && b.Offset <= mine[k-1].Offset {
			t.Fatalf("%s connection: offset %d after %d", what, b.Offset, mine[k-1].Offset)
		}
		mine = append(mine, b)
	}
	if r.Len() != 0 || !bytes.Equal(wire, referenceFrames(mine)) {
		t.Fatalf("%s frames differ from WriteBlock's", what)
	}
	return mine
}

// checkCarried fails unless the connections together carried every
// block once.
func checkCarried(t *testing.T, what string, carried, blocks []Block) {
	t.Helper()
	slices.SortFunc(carried, func(a, b Block) int { return int(a.Offset) - int(b.Offset) })
	if !slices.EqualFunc(carried, blocks, func(a, b Block) bool {
		return a.Desc == b.Desc && a.Offset == b.Offset && bytes.Equal(a.Data, b.Data)
	}) {
		t.Fatalf("%s carried %d blocks, not the object's %d", what, len(carried), len(blocks))
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

func newCachePair(t *testing.T) *cachePair { return newCachePairOf(t, 40<<10+7) }

// newCachePairOf is newCachePair with a source object of size bytes.
func newCachePairOf(t *testing.T, size int) *cachePair {
	p := &cachePair{ctl: &wireRecorder{}, track: &faultnet.Tracker{}, dstStore: NewMemStore(),
		srcHub: telemetry.NewHub(), dstHub: telemetry.NewHub(), cliHub: telemetry.NewHub(),
		payload: randomPayload(size), block: 16 << 10}
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
// that src announced the region's length and that the copy reused the
// pair's cached channel exactly when reuse is set — no PASV or PORT on
// any control channel, no listener opened, no data connection made —
// and otherwise armed a fresh one. Either way the
// bytes dst read for it are WriteBlock's reference frames of the region
// and the copy is intact.
func (p *cachePair) thirdParty(t *testing.T, src, dst *Client, name string, offset int64, reuse bool) {
	t.Helper()
	verbs, listeners := p.ctl.verbs(), p.track.Total()
	prev, seen := p.data.last()
	if size, _, err := ThirdPartyFrom(src, dst, "obj", name, offset); err != nil || size != int64(len(p.payload))-offset {
		t.Fatalf("%s: announced size %d, %v; want %d", name, size, err, int64(len(p.payload))-offset)
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

// cachedChans sums the two servers' cached-channel gauges.
func (p *cachePair) cachedChans() int64 {
	var n int64
	for _, hub := range []*telemetry.Hub{p.srcHub, p.dstHub} {
		n += hub.Gauge("gridftp_server_data_channels_cached", "").Value()
	}
	return n
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

// tapListen is a Config.ControlListen hook whose connections pass
// onRead what each Read returned and onWrite what each Write is about
// to send; either may be nil.
func tapListen(onRead, onWrite func([]byte)) func(network, addr string) (net.Listener, error) {
	return func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return tapListener{Listener: ln, onRead: onRead, onWrite: onWrite}, nil
	}
}

type tapListener struct {
	net.Listener
	onRead, onWrite func([]byte)
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l}, nil
}

type tapConn struct {
	net.Conn
	tap tapListener
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tap.onRead != nil {
		c.tap.onRead(p[:n])
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if c.tap.onWrite != nil {
		c.tap.onWrite(p)
	}
	return c.Conn.Write(p)
}

// TestThirdPartyPipelinesStorAndRetr: a third-party copy writes RETR to
// the source before it reads the destination's 150. The destination
// holds its k-th 150 until the source has read its k-th RETR, for at
// most 2 s; a client that waits for that 150 before it sends RETR
// stalls the hold out. The fresh-channel copy and the cached-channel
// one both deliver exact bytes.
func TestThirdPartyPipelinesStorAndRetr(t *testing.T) {
	retrs := make(chan struct{}, 2) // one per copy: the tap never blocks src
	countRetrs := func(p []byte) {
		for _, line := range bytes.Split(p, []byte("\r\n")) {
			if bytes.HasPrefix(line, []byte("RETR ")) {
				retrs <- struct{}{}
			}
		}
	}
	hold150 := func(p []byte) {
		if !bytes.HasPrefix(p, []byte("150 ")) {
			return
		}
		select {
		case <-retrs:
		case <-time.After(2 * time.Second):
			t.Errorf("dst held its 150 for 2s and src read no RETR: the client waited for dst's 150 first")
		}
	}
	payload := randomPayload(40<<10 + 7)
	srcStore, dstStore := NewMemStore(), NewMemStore()
	srcStore.Put("obj", payload)
	src := startServer(t, Config{Store: srcStore, ControlListen: tapListen(countRetrs, nil)})
	dst := startServer(t, Config{Store: dstStore, ControlListen: tapListen(nil, hold150)})
	hub := telemetry.NewHub()
	a, b := loginStream(t, src.Addr(), WithTelemetry(hub)), loginStream(t, dst.Addr(), WithTelemetry(hub))
	for reuses, name := range []string{"fresh", "cached"} {
		if _, _, err := ThirdPartyFrom(a, b, "obj", name, 0); err != nil {
			t.Fatalf("%s copy: %v", name, err)
		}
		if got, err := dstStore.Get(name); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s copy differs from its source (err %v)", name, err)
		}
		if n := hub.Counter("gridftp_client_data_channel_reuses_total", "").Value(); n != int64(reuses) {
			t.Fatalf("%s copy: %d channel reuses so far, want %d", name, n, reuses)
		}
	}
}

// TestPipelinedCopyRejectedStor: on a cached pair, a copy resumed at
// byte 100 of an object dst lacks has src's RETR in flight when dst
// rejects its STOR (554: the restart is past dst's 0 bytes). The copy
// fails with dst not engaged and src's announced size, neither client
// is desynced, the next copy re-arms a fresh channel and delivers exact
// frames, and the servers' cached-channel gauges are back at their
// census. At 8 MiB src's send outruns the socket buffers, so it must
// fail on dst's close rather than hang.
func TestPipelinedCopyRejectedStor(t *testing.T) {
	for _, size := range []int{64 << 10, 8 << 20} {
		t.Run(fmt.Sprintf("%d bytes", size), func(t *testing.T) {
			p := newCachePairOf(t, size)
			a, b := p.client(t, p.src), p.client(t, p.dst)
			p.thirdParty(t, a, b, "first", 0, false)
			census := p.cachedChans()
			announced, engaged, err := ThirdPartyFrom(a, b, "obj", "fresh", 100)
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Reply.Code != 554 || engaged || announced != int64(size-100) {
				t.Fatalf("rejected copy: size %d, engaged %v, err %v; want %d, false, a 554", announced, engaged, err, size-100)
			}
			if a.Desynced() || b.Desynced() {
				t.Fatalf("desynced: src %v, dst %v", a.Desynced(), b.Desynced())
			}
			p.thirdParty(t, a, b, "second", 0, false)
			if n := p.cachedChans(); n != census {
				t.Errorf("%d cached channels after the next copy, census %d", n, census)
			}
		})
	}
}

// TestOpeningReplyText pins the 150 each transfer opens with. A RETR's
// announces the length of the region it is about to send in the
// wu-ftpd form "(N bytes)": the whole object, the object past a REST
// offset, an ERET's length. A STOR's carries no size, as before.
func TestOpeningReplyText(t *testing.T) {
	ctl := &wireRecorder{}
	store := NewMemStore()
	store.Put("obj", randomPayload(40<<10+7))
	s := startServer(t, Config{Store: store, ControlListen: ctl.Listen})
	c := login(t, s.Addr())
	conn, _ := ctl.last()
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"RETR", func() error { _, _, err := fetch(c, "obj", Region{}); return err },
			"150 opening data connection (40967 bytes)"},
		{"REST+RETR", func() error { _, _, err := fetch(c, "obj", Region{Offset: 1000}); return err },
			"150 opening data connection (39967 bytes)"},
		{"ERET", func() error { _, _, err := fetch(c, "obj", Region{Offset: 1000, Length: 5000}); return err },
			"150 opening data connection (5000 bytes)"},
		{"STOR", func() error { _, err := upload(c, "up", randomPayload(100), Region{}); return err },
			"150 opening data connection"},
	} {
		written, _, _ := conn.seen()
		before := len(written)
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		written, _, _ = conn.seen()
		var openings []string
		for _, line := range strings.Split(string(written[before:]), "\r\n") {
			if strings.HasPrefix(line, "150") {
				openings = append(openings, line)
			}
		}
		if len(openings) != 1 || openings[0] != tc.want {
			t.Errorf("%s: 150 replies %q, want [%q]", tc.name, openings, tc.want)
		}
	}
}

// TestAnnouncedSize: the client reads this server's 150 and the
// classic wu-ftpd one; anything else announces no size.
func TestAnnouncedSize(t *testing.T) {
	for text, want := range map[string]int64{
		"opening data connection (40967 bytes)":                         40967,
		"opening data connection (0 bytes)":                             0,
		"Opening BINARY mode data connection for obj (1234 bytes).":     1234,
		"Opening BINARY mode data connection for a (b) (9 bytes)":       9,
		"opening data connection":                                       -1,
		"opening data connection (-5 bytes)":                            -1,
		"opening data connection (many bytes)":                          -1,
		"opening data connection (99999999999999999999999999999 bytes)": -1,
	} {
		if got := announcedSize(text); got != want {
			t.Errorf("announcedSize(%q) = %d, want %d", text, got, want)
		}
	}
}
