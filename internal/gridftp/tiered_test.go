package gridftp

import (
	"bytes"
	"context"
	"testing"

	"gftpvc/internal/telemetry"
)

func newTestTieredStore(t *testing.T, opts TieredOptions) *TieredStore {
	t.Helper()
	cold, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTieredStore(cold, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// counter reads a tiered-store metric from the hub.
func tieredCounter(hub *telemetry.Hub, name, help string) int64 {
	return hub.Counter(name, help).Value()
}

// TestTieredStoreHitMissEviction pins the cache mechanics: writes are
// write-through (an eviction loses nothing), reads promote, the byte
// bound evicts LRU-first, and the counters/gauges track all of it.
func TestTieredStoreHitMissEviction(t *testing.T) {
	hub := telemetry.NewHub()
	ts := newTestTieredStore(t, TieredOptions{
		MaxHotBytes:       100_000,
		MaxHotObjectBytes: 60_000,
		Telemetry:         hub,
	})
	a := bytes.Repeat([]byte{1}, 40_000)
	puts := []struct {
		name string
		data []byte
	}{
		{"a", a},
		{"b", bytes.Repeat([]byte{2}, 40_000)},
		{"c", bytes.Repeat([]byte{3}, 40_000)},
	}
	for _, p := range puts {
		if err := ts.Put(p.name, p.data); err != nil {
			t.Fatal(err)
		}
	}
	// 3x40k against a 100k bound: one eviction already happened.
	if v := tieredCounter(hub, "gridftp_tiered_evictions_total",
		"Objects evicted from the hot tier by the byte bound, LRU first."); v != 1 {
		t.Fatalf("evictions=%d, want 1", v)
	}
	// "a" was evicted (LRU). Reading it is a miss that re-promotes it
	// from disk — write-through means the bytes survived eviction.
	got, err := ts.Get("a")
	if err != nil || !bytes.Equal(got, a) {
		t.Fatalf("evicted object lost (err=%v)", err)
	}
	if v := tieredCounter(hub, "gridftp_tiered_hot_misses_total",
		"Reads that fell through to the tiered store's disk tier."); v != 1 {
		t.Fatalf("misses=%d, want 1", v)
	}
	// Now hot again: a second read is a hit.
	if _, err := ts.Get("a"); err != nil {
		t.Fatal(err)
	}
	if v := tieredCounter(hub, "gridftp_tiered_hot_hits_total",
		"Reads served from the tiered store's in-memory hot tier."); v < 1 {
		t.Fatalf("hits=%d, want >= 1", v)
	}
	// An object over the per-object cap is never admitted: two reads,
	// two misses, no eviction churn.
	big := bytes.Repeat([]byte{9}, 80_000)
	if err := ts.Put("big", big); err != nil {
		t.Fatal(err)
	}
	missesBefore := tieredCounter(hub, "gridftp_tiered_hot_misses_total",
		"Reads that fell through to the tiered store's disk tier.")
	for i := 0; i < 2; i++ {
		if got, err := ts.Get("big"); err != nil || !bytes.Equal(got, big) {
			t.Fatalf("oversized object read %d failed (err=%v)", i, err)
		}
	}
	missesAfter := tieredCounter(hub, "gridftp_tiered_hot_misses_total",
		"Reads that fell through to the tiered store's disk tier.")
	if missesAfter-missesBefore != 2 {
		t.Fatalf("oversized object was admitted: misses moved %d, want 2", missesAfter-missesBefore)
	}
	// Gauges agree with the bound.
	if v := hub.Gauge("gridftp_tiered_hot_bytes",
		"Bytes currently held by the tiered store's hot tier.").Value(); v <= 0 || v > 100_000 {
		t.Fatalf("hot-bytes gauge %d outside (0, 100000]", v)
	}
}

// TestTieredStoreStreamingInvalidates: a streaming rewrite through the
// tier must land on disk with DirStore's watermark semantics and leave
// no stale hot copy — Get after FinishPut sees the new version even
// though the old one was cached (and re-read mid-stream).
func TestTieredStoreStreamingInvalidates(t *testing.T) {
	ts := newTestTieredStore(t, TieredOptions{MaxHotBytes: 1 << 20, MaxHotObjectBytes: 1 << 20})
	v1 := bytes.Repeat([]byte{1}, 100_000)
	if err := ts.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.Get("obj"); err != nil { // hot now
		t.Fatal(err)
	}
	v2 := bytes.Repeat([]byte{2}, 120_000)
	if err := ts.BeginPut("obj", 0); err != nil {
		t.Fatal(err)
	}
	if err := ts.PutRegion("obj", 0, v2[:50_000]); err != nil {
		t.Fatal(err)
	}
	// Mid-stream: readers see the committed v1 (and re-admit it hot).
	if got, err := ts.Get("obj"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("mid-stream Get lost the committed version (err=%v)", err)
	}
	// Mid-stream SIZE comes from the disk tier's watermark, not the
	// cached copy... only once the hot copy is gone; the contract that
	// matters is post-abort, checked below.
	if err := ts.PutRegion("obj", 50_000, v2[50_000:]); err != nil {
		t.Fatal(err)
	}
	if err := ts.FinishPut("obj", int64(len(v2))); err != nil {
		t.Fatal(err)
	}
	if got, err := ts.Get("obj"); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("stale hot copy served after FinishPut (err=%v)", err)
	}

	// Failed rewrite: invalidation at BeginPut means SIZE probes reach
	// the disk tier's partial watermark, the resume contract.
	if err := ts.BeginPut("obj", 0); err != nil {
		t.Fatal(err)
	}
	if err := ts.PutRegion("obj", 0, v1[:30_000]); err != nil {
		t.Fatal(err)
	}
	if err := ts.AbortPut("obj"); err != nil {
		t.Fatal(err)
	}
	if n, err := ts.Size("obj"); err != nil || n != 30_000 {
		t.Fatalf("post-abort Size=%d err=%v, want 30000 (the watermark)", n, err)
	}
}

// TestTieredStoreServesServer runs the tier under a live server: an
// uploaded object streams to disk through the tier, comes back
// byte-identical, and repeated small objects churn the hot tier's
// eviction counter — the mem-over-disk quadrant on one endpoint.
func TestTieredStoreServesServer(t *testing.T) {
	hub := telemetry.NewHub()
	ts := newTestTieredStore(t, TieredOptions{
		MaxHotBytes:       128 << 10,
		MaxHotObjectBytes: 64 << 10,
		Telemetry:         hub,
	})
	s := startServer(t, Config{Store: ts, WindowSize: 64 << 10, BlockSize: 16 << 10, Telemetry: hub})
	c := loginStream(t, s.Addr(), WithWindow(64<<10))
	ctx := context.Background()

	// An object larger than the whole hot tier streams through to disk.
	big := randomPayload(512 << 10)
	if _, err := c.StorFrom(ctx, "big.bin", bytes.NewReader(big), int64(len(big))); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := c.RetrTo(ctx, "big.bin", &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), big) {
		t.Fatal("tiered round trip differs")
	}
	if _, err := ts.cold.Get("big.bin"); err != nil {
		t.Fatalf("object not durably on the disk tier: %v", err)
	}

	// Many cache-sized objects force evictions under live traffic.
	small := randomPayload(48 << 10)
	for i := 0; i < 6; i++ {
		name := string(rune('a'+i)) + ".bin"
		if _, err := c.StorFrom(ctx, name, bytes.NewReader(small), int64(len(small))); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RetrTo(ctx, name, &bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	if v := tieredCounter(hub, "gridftp_tiered_evictions_total",
		"Objects evicted from the hot tier by the byte bound, LRU first."); v == 0 {
		t.Fatal("no evictions after overflowing the hot tier")
	}
}
