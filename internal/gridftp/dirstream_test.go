package gridftp

import (
	"bytes"
	"context"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/telemetry"
)

// patternReader generates a deterministic byte pattern without ever
// materializing it, so an upload's memory footprint is the data plane's
// alone.
type patternReader struct {
	off, size int64
}

func patternByte(i int64) byte { return byte(i*131 + i>>13) }

func (r *patternReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	n := len(p)
	if rem := r.size - r.off; int64(n) > rem {
		n = int(rem)
	}
	for i := 0; i < n; i++ {
		p[i] = patternByte(r.off + int64(i))
	}
	r.off += int64(n)
	if r.off == r.size {
		return n, io.EOF
	}
	return n, nil
}

// patternCRC is the IEEE CRC32 of the first n pattern bytes, computed
// windowed so the expectation itself stays allocation-bounded.
func patternCRC(n int64) uint32 {
	var crc uint32
	buf := make([]byte, 64<<10)
	for off := int64(0); off < n; {
		m := int64(len(buf))
		if rem := n - off; m > rem {
			m = rem
		}
		for i := int64(0); i < m; i++ {
			buf[i] = patternByte(off + i)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:m])
		off += m
	}
	return crc
}

// crcWriter folds everything written into a CRC32 — a sink that holds
// no payload.
type crcWriter struct {
	crc uint32
	n   int64
}

func (w *crcWriter) Write(p []byte) (int, error) {
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	w.n += int64(len(p))
	return len(p), nil
}

// TestDirStoreStreamingBoundedMemory is the tentpole acceptance case:
// a streaming STOR and RETR of an object 128x the reassembly window
// against a DirStore-backed server must move the bytes without either
// side ever materializing the object — total allocations across both
// transfers stay far below the object size — while remaining
// byte-identical to the pattern source.
func TestDirStoreStreamingBoundedMemory(t *testing.T) {
	const (
		objSize = int64(32 << 20) // 32 MiB
		window  = 256 << 10       // x128 smaller than the object
		block   = 64 << 10
	)
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Store: store, WindowSize: window, BlockSize: block})
	c := loginStream(t, s.Addr(), WithWindow(window))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	ctx := context.Background()
	up, err := c.StorFrom(ctx, "big.bin", &patternReader{size: objSize}, objSize)
	if err != nil {
		t.Fatal(err)
	}
	sink := &crcWriter{}
	down, err := c.RetrTo(ctx, "big.bin", sink)
	if err != nil {
		t.Fatal(err)
	}

	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	// A whole-object buffer would allocate >= objSize per direction;
	// the streaming paths allocate windows, bufio buffers, and scratch
	// blocks. Half the object is an order of magnitude of headroom
	// while still proving nothing materialized the payload.
	if allocated > objSize/2 {
		t.Fatalf("transfers allocated %d bytes (object is %d): a full-object buffer slipped in", allocated, objSize)
	}

	if up.Bytes != objSize || down.Bytes != objSize {
		t.Fatalf("moved %d up / %d down, want %d", up.Bytes, down.Bytes, objSize)
	}
	if sink.n != objSize || sink.crc != patternCRC(objSize) {
		t.Fatalf("retrieved stream differs from pattern (n=%d)", sink.n)
	}
	info, err := os.Stat(filepath.Join(dir, "big.bin"))
	if err != nil || info.Size() != objSize {
		t.Fatalf("on-disk object: size=%v err=%v, want %d", info, err, objSize)
	}
}

// TestDirStoreStorResetLeavesExactOnDiskWatermark is the disk half of
// the PR 5 resume contract: a connection reset mid-STOR leaves a
// partial sidecar whose on-disk size equals both the SIZE reply and
// the delivered-bytes counter exactly; resuming from that watermark
// completes a byte-identical object with redundancy bounded by one
// window plus framing slack.
func TestDirStoreStorResetLeavesExactOnDiskWatermark(t *testing.T) {
	const (
		size    = 1 << 20
		window  = 64 << 10
		block   = 16 << 10
		resetAt = int64(size * 6 / 10)
	)
	hub := telemetry.NewHub()
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
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
	// The on-disk sidecar IS the watermark: stat it directly.
	pp := filepath.Join(dir, ".gftp-partial.fault.bin")
	info, err := os.Stat(pp)
	if err != nil {
		t.Fatalf("partial sidecar missing after failed STOR: %v", err)
	}
	if info.Size() != watermark {
		t.Fatalf("sidecar is %d bytes but SIZE reports %d: on-disk watermark must be exact", info.Size(), watermark)
	}
	delivered := hub.Counter("gridftp_server_delivered_bytes_total",
		"Payload bytes delivered to the store exactly once, by operation.", telemetry.L("op", "stor")).Value()
	if delivered != watermark {
		t.Fatalf("delivered counter %d != on-disk watermark %d", delivered, watermark)
	}
	onDisk, err := os.ReadFile(pp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want[:watermark]) {
		t.Fatal("partial sidecar is not a clean prefix of the payload")
	}
	// The committed namespace does not expose the partial.
	if _, err := store.Get("fault.bin"); err == nil {
		t.Fatal("Get served an uncommitted partial")
	}

	// Resume exactly from the on-disk watermark.
	if _, err := c.StorFromAt(ctx, "fault.bin", bytes.NewReader(want[watermark:]), Region{Offset: watermark}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("fault.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed object differs from payload")
	}
	if _, err := os.Stat(pp); !os.IsNotExist(err) {
		t.Fatalf("sidecar survived the committed resume (stat err=%v)", err)
	}

	// Redundancy across both attempts: bounded by one window plus MODE E
	// framing and in-flight scratch, same budget as the MemStore drill.
	wire := hub.Counter("gridftp_server_transfer_bytes_total",
		"Wire bytes moved on data channels, by operation.", telemetry.L("op", "stor")).Value()
	deliveredAll := hub.Counter("gridftp_server_delivered_bytes_total",
		"Payload bytes delivered to the store exactly once, by operation.", telemetry.L("op", "stor")).Value()
	if deliveredAll != size {
		t.Fatalf("delivered counter %d, want %d", deliveredAll, size)
	}
	headers := int64((size/block + 16) * modeEHeaderLen)
	slack := int64(window) + int64(block) + headers
	if gap := wire - deliveredAll; gap <= 0 || gap > slack {
		t.Fatalf("wire-delivered gap %d outside (0, %d]: resume must re-send less than one window", gap, slack)
	}
}

// TestDirStoreRetrSnapshotPinsVersionAcrossPut: a slow streaming RETR
// against a DirStore keeps serving the version it opened even when a
// Put replaces the object mid-transfer — the open-handle snapshot
// discipline on real files.
func TestDirStoreRetrSnapshotPinsVersionAcrossPut(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := randomPayload(512 << 10)
	if err := store.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Store: store, BlockSize: 8 << 10})
	c := loginStream(t, s.Addr(), WithWindow(64<<10))

	// interleaveWriter swaps the object mid-download, after the first
	// write lands.
	var out bytes.Buffer
	swapped := false
	iw := writerFunc(func(p []byte) (int, error) {
		if !swapped {
			swapped = true
			v2 := bytes.Repeat([]byte{0xCC}, 512<<10)
			if err := store.Put("obj", v2); err != nil {
				return 0, err
			}
		}
		return out.Write(p)
	})
	if _, err := c.RetrTo(context.Background(), "obj", iw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), v1) {
		t.Fatal("RETR interleaved versions: snapshot did not pin the opened file")
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }
