package gridftp

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
)

// wireRecorder is a Config.DataListen hook that keeps, for every data
// connection the server accepts, the bytes it wrote and read and the
// number of Write calls it made.
type wireRecorder struct {
	mu    sync.Mutex
	conns []*wireConn
}

func (w *wireRecorder) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
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
