package gridftp

import (
	"bytes"
	"io"
	"runtime"
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

// TestMemStoreSnapshotClose pins the snapshot's pin: a closed snapshot
// cannot read, closing twice releases one pin, a held snapshot keeps
// its version through an overwrite, and once nothing pins the name an
// overwrite refills the chunks of the version it replaces instead of
// allocating the object again. A resumed put never hands out the chunk
// its cut lands in, whose head is still the object's prefix.
func TestMemStoreSnapshotClose(t *testing.T) {
	const size, region = 1 << 20, 256 << 10
	m := NewMemStore()
	v1 := memPattern(1, size)
	putRegions(t, m, "obj", 0, v1, region)

	a, _, err := m.SnapshotObject("obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := a.ReadAt(make([]byte, 10), 0); err == nil {
		t.Fatalf("ReadAt after Close read %d bytes without an error", n)
	}

	// b is held while a is closed a second time: had that Close released
	// b's pin, the overwrite would refill the chunks b reads.
	b, bsize, err := m.SnapshotObject("obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	putRegions(t, m, "obj", 0, memPattern(2, size), region)
	if !bytes.Equal(readSnapshot(t, b, bsize), v1) {
		t.Fatal("a held snapshot observed the overwrite")
	}
	b.(io.Closer).Close()

	payloads := [][]byte{memPattern(3, size), memPattern(4, size), memPattern(5, size)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range payloads {
		putRegions(t, m, "obj", 0, p, region)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(payloads)); per >= 4<<10 {
		t.Errorf("an unpinned overwrite of a %d-byte object allocates %d bytes, budget 4 KiB", size, per)
	}
	last := payloads[len(payloads)-1]
	if got, err := m.Get("obj"); err != nil || !bytes.Equal(got, last) {
		t.Fatalf("overwritten object differs (err=%v)", err)
	}

	// Resume mid-chunk and append more regions than there are whole
	// chunks past the cut, each small enough to fit the cut chunk's
	// pinned capacity, so a cut chunk on the spare list would be handed
	// out and overwrite the prefix it still holds.
	const base = region + memChunkFloor
	suffix := memPattern(9, size)
	putRegions(t, m, "obj", base, suffix, memChunkFloor)
	want := append(append([]byte{}, last[:base]...), suffix...)
	if got, err := m.Get("obj"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed object differs (err=%v)", err)
	}
}

// TestMemStoreSpareListKept: an overwrite keeps the spare list's array
// from the one before, so an unpinned overwrite of a 16 MiB object in
// 64 KiB regions, whose 256 chunks all pass through the spare list,
// allocates under 1 KiB. A list made afresh per overwrite is 6 KiB.
func TestMemStoreSpareListKept(t *testing.T) {
	const size, region, overwrites = 16 << 20, 64 << 10, 4
	m := NewMemStore()
	payloads := [][]byte{memPattern(1, size), memPattern(2, size)}
	putRegions(t, m, "obj", 0, payloads[0], region)
	putRegions(t, m, "obj", 0, payloads[1], region)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < overwrites; i++ {
		putRegions(t, m, "obj", 0, payloads[i%2], region)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / overwrites; per >= 1<<10 {
		t.Errorf("an unpinned overwrite of a %d-byte object in %d-byte regions allocates %d bytes, budget 1 KiB", size, region, per)
	}
	if got, err := m.Get("obj"); err != nil || !bytes.Equal(got, payloads[(overwrites-1)%2]) {
		t.Fatalf("overwritten object differs (err=%v)", err)
	}
}

// TestMemStoreOverwriteReusesChunks: an unpinned overwrite no larger
// than the version it replaces makes no new chunk, whatever regions the
// window cut either version into — a 2 MiB region after a 1 MiB + 3 MiB
// version fills the 3 MiB chunk's start and then the rest of it and the
// 1 MiB one. Reusing only a spare that holds a whole region made a new
// 2 MiB chunk there.
func TestMemStoreOverwriteReusesChunks(t *testing.T) {
	const mib = 1 << 20
	for _, tc := range []struct{ old, new []int }{
		{[]int{1, 3}, []int{2, 2}},
		{[]int{3, 1}, []int{2, 2}},
		{[]int{2, 2}, []int{1, 3}},
		{[]int{2, 2}, []int{3, 1}},
		{[]int{1, 1, 1, 1}, []int{4}},
		{[]int{4}, []int{1, 1, 1, 1}},
		{[]int{1, 3}, []int{3}},
	} {
		m := NewMemStore()
		put := func(regions []int, fill byte) []byte {
			var data []byte
			for _, r := range regions {
				data = append(data, memPattern(fill, r*mib)...)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := m.BeginPut("obj", 0); err != nil {
				t.Fatal(err)
			}
			off := 0
			for _, r := range regions {
				if err := m.PutRegion("obj", int64(off), data[off:off+r*mib]); err != nil {
					t.Fatal(err)
				}
				off += r * mib
			}
			if err := m.FinishPut("obj", int64(off)); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if fill == 2 {
				if n := after.TotalAlloc - before.TotalAlloc; n >= 4<<10 {
					t.Errorf("%v MiB regions over %v MiB ones allocated %d bytes, budget 4 KiB", tc.new, tc.old, n)
				}
			}
			return data
		}
		put(tc.old, 1)
		want := put(tc.new, 2)
		if got, err := m.Get("obj"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%v MiB regions over %v MiB ones: object differs (err=%v)", tc.new, tc.old, err)
		}
	}
}

// TestMemStoreSnapshotPinsRaceOverwrites runs the reuse path under
// concurrency: readers snapshot, read twice and close while the writer
// overwrites, so chunks pass from version to version as pins come and
// go. Run under -race, a snapshot must read the same bytes both times,
// and those bytes must be a prefix of one version — a refilled chunk
// it still pinned would show as a mix.
func TestMemStoreSnapshotPinsRaceOverwrites(t *testing.T) {
	const size, region = 200_000, 70_000
	versions := make([][]byte, 5)
	for i := range versions {
		versions[i] = memPattern(byte(1+i*50), size)
	}
	m := NewMemStore()
	putRegions(t, m, "obj", 0, versions[0], region)
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
				r, n, err := m.SnapshotObject("obj")
				if err != nil {
					t.Error(err)
					return
				}
				first, again := make([]byte, n), make([]byte, n)
				r.ReadAt(first, 0)
				r.ReadAt(again, 0)
				r.(io.Closer).Close()
				whole := false
				for _, v := range versions {
					whole = whole || bytes.Equal(first, v[:n])
				}
				if !whole || !bytes.Equal(first, again) {
					t.Error("a snapshot read bytes of a later overwrite")
					return
				}
			}
		}()
	}
	for i := 0; i < 300; i++ {
		putRegions(t, m, "obj", 0, versions[i%len(versions)], region)
	}
	close(stop)
	wg.Wait()
}

// TestStaleSnapshotHandleRacesNewLend reads and closes closed snapshot
// handles from another goroutine while the store lends their record
// again, over and over, and overwrites the object under each lend. A
// stale handle must read nothing and release no pin: a released pin
// would let the overwrite refill the chunks the current lend reads, and
// each stale Close would leave the pin count one lower. Under -race a
// stale call that touched the record outside the store's lock shows
// here.
func TestStaleSnapshotHandleRacesNewLend(t *testing.T) {
	const size, region, lends = 200_000, 70_000, 50
	versions := [][]byte{memPattern(1, size), memPattern(101, size)}
	m := NewMemStore()
	putRegions(t, m, "obj", 0, versions[0], region)
	stale := make(chan io.ReaderAt, lends) // every closed handle, sent without waiting
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range stale {
			if n, err := r.ReadAt(make([]byte, 1), 0); err == nil {
				t.Errorf("a closed snapshot read %d bytes without an error", n)
			}
			r.(io.Closer).Close()
		}
	}()
	for i := 0; i < lends; i++ {
		r, n, err := m.SnapshotObject("obj")
		if err != nil {
			t.Fatal(err)
		}
		putRegions(t, m, "obj", 0, versions[(i+1)%2], region)
		if !bytes.Equal(readSnapshot(t, r, n), versions[i%2]) {
			t.Fatalf("lend %d read bytes of the overwrite made under it", i)
		}
		r.(io.Closer).Close()
		stale <- r
	}
	close(stale)
	<-done
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pins["obj"] != 0 || m.spares != 1 {
		t.Fatalf("after the race: %d pins and %d spare records, want 0 and 1", m.pins["obj"], m.spares)
	}
}
