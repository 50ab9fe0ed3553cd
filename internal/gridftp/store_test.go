package gridftp

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// putRegions replays data into the store through the streaming-put
// protocol in small ascending regions, the way the windowed receiver
// flushes them.
func putRegions(t *testing.T, s StreamPutter, name string, base int64, data []byte, region int) {
	t.Helper()
	if err := s.BeginPut(name, base); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += region {
		end := off + region
		if end > len(data) {
			end = len(data)
		}
		if err := s.PutRegion(name, base+int64(off), data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FinishPut(name, base+int64(len(data))); err != nil {
		t.Fatal(err)
	}
}

// readSnapshot drains a snapshot reader into a fresh slice.
func readSnapshot(t *testing.T, r io.ReaderAt, size int64) []byte {
	t.Helper()
	out := make([]byte, size)
	if n, err := r.ReadAt(out, 0); int64(n) != size || (err != nil && err != io.EOF) {
		t.Fatalf("snapshot read: n=%d err=%v, want %d bytes", n, err, size)
	}
	return out
}

// TestMemStoreSnapshotSurvivesRewrite pins SnapshotObject's contract:
// a snapshot taken before a streaming rewrite keeps serving its
// version byte-for-byte while BeginPut/PutRegion build the next one —
// the consistency a RETR overlapping a concurrent STOR relies on.
func TestMemStoreSnapshotSurvivesRewrite(t *testing.T) {
	m := NewMemStore()
	v1 := bytes.Repeat([]byte{1}, 300_000)
	if err := m.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	snap1, size1, err := m.SnapshotObject("obj")
	if err != nil || size1 != int64(len(v1)) {
		t.Fatalf("snapshot: size=%d err=%v", size1, err)
	}

	v2 := bytes.Repeat([]byte{2}, 400_000)
	putRegions(t, m, "obj", 0, v2, 7_000)
	if !bytes.Equal(readSnapshot(t, snap1, size1), v1) {
		t.Fatal("pre-rewrite snapshot observed the rewrite")
	}
	cur, err := m.Get("obj")
	if err != nil || !bytes.Equal(cur, v2) {
		t.Fatalf("store holds wrong version after rewrite (err=%v)", err)
	}

	// Resumed put: truncate to a mid-object base and append a suffix.
	// A snapshot of v2 must still see all of v2, even though the
	// resumed put's prefix shares its bytes.
	snap2, size2, err := m.SnapshotObject("obj")
	if err != nil || size2 != int64(len(v2)) {
		t.Fatalf("snapshot: size=%d err=%v", size2, err)
	}
	const base = 100_000
	suffix := bytes.Repeat([]byte{3}, 250_000)
	putRegions(t, m, "obj", base, suffix, 9_000)
	if !bytes.Equal(readSnapshot(t, snap2, size2), v2) {
		t.Fatal("snapshot observed the resumed put")
	}
	want := append(append([]byte{}, v2[:base]...), suffix...)
	cur, err = m.Get("obj")
	if err != nil || !bytes.Equal(cur, want) {
		t.Fatalf("resumed object wrong (err=%v)", err)
	}
}

// TestMemStorePutRegionGrowthIsExact checks the chunked growth path
// byte-for-byte: regions below the chunk floor filling a chunk and
// spilling into the next, and a final length that is not a multiple of
// anything.
func TestMemStorePutRegionGrowthIsExact(t *testing.T) {
	m := NewMemStore()
	want := make([]byte, 123_457)
	for i := range want {
		want[i] = byte(i * 7)
	}
	putRegions(t, m, "obj", 0, want, 613)
	got, err := m.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("region-grown object differs")
	}
	if n, _ := m.Size("obj"); n != int64(len(want)) {
		t.Fatalf("Size=%d, want %d", n, len(want))
	}
}

// TestMemStorePutRegionRejectsRewrite pins the PutRegion contract: a
// region that does not start at the watermark is refused — below it, it
// would rewrite bytes a held snapshot reads — and leaves the object and
// the snapshot as they were.
func TestMemStorePutRegionRejectsRewrite(t *testing.T) {
	m := NewMemStore()
	v1 := bytes.Repeat([]byte{1}, 1000)
	putRegions(t, m, "obj", 0, v1, 300)
	snap, size, err := m.SnapshotObject("obj")
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 999, 1001} {
		if err := m.PutRegion("obj", off, []byte{9}); err == nil {
			t.Fatalf("PutRegion at %d of a 1000-byte object accepted", off)
		}
	}
	if !bytes.Equal(readSnapshot(t, snap, size), v1) {
		t.Fatal("a refused region reached the snapshot")
	}
	if got, err := m.Get("obj"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("a refused region reached the object (err=%v)", err)
	}
}

// TestMemStoreSnapshotsRaceWrites reads snapshots from several
// goroutines while the writer appends small regions into the tail chunk
// they share and BeginPut cuts it: run under -race, a snapshot must read
// the same bytes every time, however the writes interleave.
func TestMemStoreSnapshotsRaceWrites(t *testing.T) {
	m := NewMemStore()
	putRegions(t, m, "obj", 0, memPattern(1, 1000), 100)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, size, err := m.SnapshotObject("obj")
				if err != nil {
					t.Error(err)
					return
				}
				first, again := make([]byte, size), make([]byte, size)
				r.ReadAt(first, 0)
				m.ReadObjectAt("obj", again, 0) // races the writer too; overwritten next
				r.ReadAt(again, 0)
				if !bytes.Equal(first, again) {
					t.Error("a snapshot changed under a concurrent put")
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		putRegions(t, m, "obj", int64(500+i%200), memPattern(byte(i), 300), 10)
	}
	close(stop)
	wg.Wait()
}
