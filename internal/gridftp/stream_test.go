package gridftp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/telemetry"
)

// loginStream dials with streaming-friendly options and logs in.
func loginStream(t *testing.T, addr string, opts ...Option) *Client {
	t.Helper()
	c, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login("anonymous", "test@"); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamRetrLargerThanWindow is the acceptance case for the
// streaming read path: an object much larger than the reassembly
// window arrives complete and byte-identical to the stored payload,
// through either call shape, with client memory bounded by the window (the assembler allocates
// window + bitmap up front and nothing else grows with object size).
func TestStreamRetrLargerThanWindow(t *testing.T) {
	const window = 128 << 10
	store := NewMemStore()
	want := randomPayload(2 << 20) // 16 windows
	store.Put("big.bin", want)
	s := startServer(t, Config{Store: store, BlockSize: 16 << 10})
	c := loginStream(t, s.Addr(), WithWindow(window))
	if err := c.SetParallelism(3); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	stats, err := c.RetrTo(context.Background(), "big.bin", &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("streamed bytes differ from stored object")
	}
	if stats.Bytes != int64(len(want)) {
		t.Fatalf("delivered %d bytes, want %d", stats.Bytes, len(want))
	}
	if stats.WireBytes != stats.Bytes {
		t.Fatalf("wire=%d delivered=%d: clean transfer should re-send nothing", stats.WireBytes, stats.Bytes)
	}
	// The buffered call shape is the same engine over a byte slice.
	buffered, bstats, err := fetch(c, "big.bin", Region{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered, want) {
		t.Fatal("buffered retrieval differs from stored object")
	}
	if bstats.WireBytes != int64(len(want)) {
		t.Fatalf("buffered retrieval reported wire=%d, want %d", bstats.WireBytes, len(want))
	}
}

// TestStreamStorLargerThanWindow: the windowed receive path stores an
// object eight times the server's window, byte-identical to the
// payload, through either client call shape.
func TestStreamStorLargerThanWindow(t *testing.T) {
	const window = 256 << 10
	store := NewMemStore()
	s := startServer(t, Config{Store: store, WindowSize: window, BlockSize: 16 << 10})
	c := loginStream(t, s.Addr(), WithWindow(window))
	if err := c.SetParallelism(3); err != nil {
		t.Fatal(err)
	}

	want := randomPayload(2 << 20)
	stats, err := c.StorFrom(context.Background(), "up.bin", bytes.NewReader(want), int64(len(want)))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64(len(want)) {
		t.Fatalf("sent %d bytes, want %d", stats.Bytes, len(want))
	}
	got, err := store.Get("up.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("windowed store differs from payload")
	}
	// Same payload through the buffered call shape, checked server-side.
	if _, err := upload(c, "up2.bin", want, Region{}); err != nil {
		t.Fatal(err)
	}
	sum, err := c.Checksum("up2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if wantSum := fmt.Sprintf("%08x", crc32.ChecksumIEEE(want)); sum != wantSum {
		t.Fatalf("buffered upload crc %s, payload crc %s", sum, wantSum)
	}
}

// TestStreamRetrResumeAt: REST-based streaming retrieval delivers the
// exact object suffix.
func TestStreamRetrResumeAt(t *testing.T) {
	store := NewMemStore()
	want := randomPayload(512 << 10)
	store.Put("obj.bin", want)
	s := startServer(t, Config{Store: store, BlockSize: 16 << 10})
	c := loginStream(t, s.Addr(), WithWindow(64<<10))

	const offset = 200_000
	var out bytes.Buffer
	stats, err := c.RetrToAt(context.Background(), "obj.bin", &out, Region{Offset: offset})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want[offset:]) {
		t.Fatal("resumed retrieval differs from object suffix")
	}
	if stats.Bytes != int64(len(want)-offset) {
		t.Fatalf("delivered %d, want %d", stats.Bytes, len(want)-offset)
	}
}

// TestStreamStorResumeAppends: a partial upload followed by a REST
// continuation yields the complete object — the watermark the dst
// reports via SIZE is exactly where the continuation must begin.
func TestStreamStorResumeAppends(t *testing.T) {
	store := NewMemStore()
	s := startServer(t, Config{Store: store, WindowSize: 64 << 10})
	c := loginStream(t, s.Addr(), WithWindow(64<<10))

	want := randomPayload(300 << 10)
	const cut = 120_000
	ctx := context.Background()
	if _, err := c.StorFrom(ctx, "res.bin", bytes.NewReader(want[:cut]), cut); err != nil {
		t.Fatal(err)
	}
	watermark, err := c.Size("res.bin")
	if err != nil {
		t.Fatal(err)
	}
	if watermark != cut {
		t.Fatalf("watermark %d, want %d", watermark, cut)
	}
	if _, err := c.StorFromAt(ctx, "res.bin", bytes.NewReader(want[watermark:]), Region{Offset: watermark}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("res.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed object differs from payload")
	}
}

// TestStreamStorResetLeavesResumablePartial is the fault-matrix
// acceptance case at the protocol layer: a connection reset at ~60% of
// an upload must leave a partial object whose SIZE is a valid restart
// watermark, and completing from that watermark must (a) produce a
// byte-identical object and (b) re-send strictly less than the full
// object — the wire-vs-delivered counter gap stays bounded by one
// reassembly window plus per-connection framing slack.
func TestStreamStorResetLeavesResumablePartial(t *testing.T) {
	const (
		size    = 1 << 20
		window  = 64 << 10
		block   = 16 << 10
		resetAt = int64(size * 6 / 10)
	)
	hub := telemetry.NewHub()
	store := NewMemStore()
	// Reset the first data connection after it has carried ~60% of the
	// object; later transfers (the resume attempt) get clean conns.
	transfers := 0
	tracker := &faultnet.Tracker{PlanFor: func(i int) *faultnet.ConnPlan {
		if transfers == 0 {
			transfers++
			return &faultnet.ConnPlan{ResetReadAfter: resetAt}
		}
		return nil
	}}
	s := startServer(t, Config{
		Store:         store,
		WindowSize:    window,
		BlockSize:     block,
		DataTimeout:   500 * time.Millisecond,
		AcceptTimeout: 500 * time.Millisecond,
		DataListen:    tracker.Listen,
		Telemetry:     hub,
	})
	c := loginStream(t, s.Addr(), WithWindow(window), WithDataTimeout(500*time.Millisecond))

	want := randomPayload(size)
	ctx := context.Background()
	if _, err := c.StorFrom(ctx, "fault.bin", bytes.NewReader(want), size); err == nil {
		t.Fatal("upload through a resetting connection should fail")
	}
	watermark, err := c.Size("fault.bin")
	if err != nil {
		t.Fatalf("partial object must be probeable: %v", err)
	}
	if watermark <= 0 || watermark >= size {
		t.Fatalf("watermark %d outside (0,%d)", watermark, size)
	}
	got, err := store.Get("fault.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[:watermark]) {
		t.Fatal("partial object is not a clean prefix of the payload")
	}

	// Resume from the watermark.
	if _, err := c.StorFromAt(ctx, "fault.bin", bytes.NewReader(want[watermark:]), Region{Offset: watermark}); err != nil {
		t.Fatal(err)
	}
	got, err = store.Get("fault.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed object differs from payload")
	}

	// The redundant traffic across both attempts is what the failed
	// attempt had received but not yet flushed: at most one window of
	// payload, plus MODE E framing and one in-flight scratch block per
	// connection.
	wire := hub.Counter("gridftp_server_transfer_bytes_total",
		"Wire bytes moved on data channels, by operation.", telemetry.L("op", "stor")).Value()
	delivered := hub.Counter("gridftp_server_delivered_bytes_total",
		"Payload bytes delivered to the store exactly once, by operation.", telemetry.L("op", "stor")).Value()
	if delivered != size {
		t.Fatalf("delivered counter %d, want %d", delivered, size)
	}
	headers := int64((size/block + 16) * modeEHeaderLen)
	slack := int64(window) + int64(block) + headers
	if gap := wire - delivered; gap <= 0 || gap > slack {
		t.Fatalf("wire-delivered gap %d outside (0, %d]: resume must re-send less than one window", gap, slack)
	}
}

// TestStreamStorOversizeRejectedBeforeParking: the MaxObjectSize guard
// must fire on the windowed path before any window-full parking, so a
// malicious offset is a prompt 426 instead of a DataTimeout-long park.
func TestStreamStorOversizeRejectedBeforeParking(t *testing.T) {
	s := startServer(t, Config{
		Store:         NewMemStore(),
		WindowSize:    32 << 10,
		MaxObjectSize: 64 << 10,
		DataTimeout:   5 * time.Second,
	})
	rs := rawDial(t, s.Addr())
	rs.login(t)
	reply := rs.cmd(t, "PASV", "227")
	open := strings.Index(reply, "(")
	closeIdx := strings.LastIndex(reply, ")")
	addr, err := parseHostPort(reply[open+1 : closeIdx])
	if err != nil {
		t.Fatal(err)
	}
	rs.cmd(t, "STOR huge.bin", "150")
	dc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	start := time.Now()
	if err := WriteBlock(dc, Block{Offset: 1 << 40, Data: []byte("boom")}); err != nil {
		t.Fatal(err)
	}
	rs.expect(t, "426")
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("oversize rejection took %v: it parked instead of failing fast", d)
	}
}

// TestStorAllocBudget is the tier-1 guard on what moving a byte costs.
// A 16 MiB two-stream STOR into a MemStore server, at the default 8 MiB
// window, allocates at most 1.1x the object across client and server:
// one copy of the object and the per-stream buffers, no window, since
// each stream's offsets ascend and a block beyond the watermark waits
// in its frame buffer for the sibling carrying the gap. A 16 MiB
// two-stream RetrTo into a discarding sink, at the default 4 MiB client
// window, allocates for the same reason little more than its four
// per-stream frame buffers, one 256 KiB block each on either side:
// under 1 MiB and 128 KiB. And 1 MiB written as 1-byte regions
// allocates at most 1.5 MiB. A store that grows by doubling reads
// about 2x on the first and over 2 MiB on the last.
func TestStorAllocBudget(t *testing.T) {
	measure := func(op func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		op()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	const size, ops = 16 << 20, 3
	twoStreams := func(t *testing.T, store *MemStore) *Client {
		s := startServer(t, Config{Store: store})
		c := loginStream(t, s.Addr())
		if err := c.SetParallelism(2); err != nil {
			t.Fatal(err)
		}
		return c
	}
	t.Run("stor", func(t *testing.T) {
		store := NewMemStore()
		c := twoStreams(t, store)
		payload := randomPayload(size)
		stor := func() {
			if _, err := c.StorFrom(context.Background(), "up.bin", bytes.NewReader(payload), size); err != nil {
				t.Fatal(err)
			}
		}
		stor() // the first STOR registers the metric families
		per := measure(func() {
			for i := 0; i < ops; i++ {
				stor()
			}
		}) / ops
		if per > 1.1*size {
			t.Errorf("a %d-byte STOR allocates %.0f bytes (%.2fx the object), budget 1.1x", size, per, per/size)
		}
		if got, err := store.Get("up.bin"); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("stored object differs (err=%v)", err)
		}
	})
	t.Run("retr", func(t *testing.T) {
		store := NewMemStore()
		if err := store.Put("down.bin", randomPayload(size)); err != nil {
			t.Fatal(err)
		}
		c := twoStreams(t, store)
		retr := func() {
			if stats, err := c.RetrTo(context.Background(), "down.bin", io.Discard); err != nil || stats.Bytes != size {
				t.Fatalf("RetrTo: %d bytes, %v", stats.Bytes, err)
			}
		}
		retr() // the first RETR registers the metric families
		per := measure(func() {
			for i := 0; i < ops; i++ {
				retr()
			}
		}) / ops
		if per >= 1<<20+128<<10 {
			t.Errorf("a %d-byte RETR allocates %.0f bytes, budget 1.125 MiB", size, per)
		}
	})
	t.Run("1-byte regions", func(t *testing.T) {
		const size = 1 << 20
		m := NewMemStore()
		payload := randomPayload(size)
		alloc := measure(func() { putRegions(t, m, "obj", 0, payload, 1) })
		if alloc > 1.5*size {
			t.Errorf("%d 1-byte regions allocate %.0f bytes, budget %d", size, alloc, 3*size/2)
		}
		if got, err := m.Get("obj"); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("stored object differs (err=%v)", err)
		}
	})
}

// TestStorOverwriteAllocBudget guards the overwrite path the write
// workloads take: every STOR after the first replaces an object nobody
// is reading, so the MemStore server refills the chunks of the version
// it replaces. Each of three two-stream 16 MiB overwrites allocates at
// most 0.2x the object across client and server — the per-stream
// buffers and per-transfer state, not a second copy of the object,
// which a store that allocates every version reads as about 1x.
func TestStorOverwriteAllocBudget(t *testing.T) {
	const size = 16 << 20
	store := NewMemStore()
	s := startServer(t, Config{Store: store})
	c := loginStream(t, s.Addr())
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, 4)
	for k := range payloads {
		payloads[k] = randomPayload(size)
		for i := range payloads[k] {
			payloads[k][i] += byte(k)
		}
	}
	stor := func(p []byte) {
		if _, err := c.StorFrom(context.Background(), "up.bin", bytes.NewReader(p), size); err != nil {
			t.Fatal(err)
		}
	}
	stor(payloads[0]) // creates the object and registers the metric families
	for k, p := range payloads[1:] {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stor(p)
		runtime.ReadMemStats(&after)
		if per := float64(after.TotalAlloc - before.TotalAlloc); per > 0.2*size {
			t.Errorf("overwrite %d of a %d-byte object allocates %.0f bytes (%.2fx), budget 0.2x", k+1, size, per, per/size)
		}
	}
	if got, err := store.Get("up.bin"); err != nil || !bytes.Equal(got, payloads[len(payloads)-1]) {
		t.Fatalf("stored object is not the last payload (err=%v)", err)
	}
}

// failingReader yields data, then fails with err.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestStorSourceErrorNeverCleanEnd: an upload whose reader fails after
// three blocks returns an error wrapping the reader's, the server logs
// a failed transfer rather than a 226, and no object of the three
// blocks' length is committed under the name.
func TestStorSourceErrorNeverCleanEnd(t *testing.T) {
	const block = 4 << 10
	boom := errors.New("source disk failed")
	for _, streams := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d streams", streams), func(t *testing.T) {
			s := startServer(t, Config{BlockSize: block})
			// A window of four blocks makes the upload blocks block-sized.
			c := loginStream(t, s.Addr(), WithWindow(4*block))
			if err := c.SetParallelism(streams); err != nil {
				t.Fatal(err)
			}
			src := &failingReader{data: randomPayload(3 * block), err: boom}
			if _, err := c.StorFrom(context.Background(), "cut.bin", src, 10*block); !errors.Is(err, boom) {
				t.Fatalf("StorFrom from a failing reader: %v, want it to wrap %v", err, boom)
			}
			recs := s.Records()
			if len(recs) == 0 || recs[len(recs)-1].Code == 0 {
				t.Fatalf("server logged the failed upload as a success: %+v", recs)
			}
			if size, err := c.Size("cut.bin"); err == nil && size == 3*block {
				t.Fatalf("SIZE shows the truncated %d bytes committed", size)
			}
		})
	}
}
