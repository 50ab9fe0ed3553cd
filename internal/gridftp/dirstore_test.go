package gridftp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func newTestDirStore(t *testing.T) *DirStore {
	t.Helper()
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDirStoreDirectoryIsNotFound: a name resolving to a directory is
// not an object. Size already mapped this to ErrNotFound; Get,
// ReadObjectAt, and SnapshotObject must agree instead of leaking the
// raw OS "is a directory" error to a 550 reply.
func TestDirStoreDirectoryIsNotFound(t *testing.T) {
	d := newTestDirStore(t)
	if err := d.Put("sub/obj", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	checks := map[string]func() error{
		"Get":  func() error { _, err := d.Get("sub"); return err },
		"Size": func() error { _, err := d.Size("sub"); return err },
		"ReadObjectAt": func() error {
			_, err := d.ReadObjectAt("sub", make([]byte, 4), 0)
			return err
		},
		"SnapshotObject": func() error { _, _, err := d.SnapshotObject("sub"); return err },
		"BeginPutResume": func() error { return d.BeginPut("sub", 1) },
	}
	for name, call := range checks {
		err := call()
		if err == nil {
			t.Fatalf("%s on a directory succeeded", name)
		}
		if name == "BeginPutResume" {
			// The resume probe source is a directory: any error is fine as
			// long as it is not the raw EISDIR and no sidecar is left.
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("%s on a directory = %v, want ErrNotFound", name, err)
		}
	}
	// No stray partial sidecar from the failed BeginPut.
	if _, err := os.Stat(filepath.Join(d.Root(), ".gftp-partial.sub")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed BeginPut left a partial sidecar (stat err=%v)", err)
	}
}

// TestDirStorePutRenameFailureLeavesNoTemp is the orphaned-temp
// regression: when the final rename fails (here: the destination is a
// non-empty directory), the .gftp-* temp must be removed, not litter
// the root forever.
func TestDirStorePutRenameFailureLeavesNoTemp(t *testing.T) {
	d := newTestDirStore(t)
	if err := d.Put("sub/obj", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// "sub" resolves to the existing non-empty directory: CreateTemp
	// succeeds, the rename onto the directory fails.
	if err := d.Put("sub", []byte("boom")); err == nil {
		t.Fatal("Put onto a non-empty directory succeeded")
	}
	entries, err := os.ReadDir(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".gftp-") {
			t.Fatalf("orphaned temp file %s after failed rename", e.Name())
		}
	}
}

// TestDirStoreListSurvivesRacingPuts: Puts create temp files that
// vanish via rename while List walks the tree; the walk must neither
// abort on a vanished entry nor report temps/partials, however the
// race lands.
func TestDirStoreListSurvivesRacingPuts(t *testing.T) {
	d := newTestDirStore(t)
	payload := bytes.Repeat([]byte{7}, 32<<10)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			names := []string{"a/obj", "a/b/obj", "c/obj", "obj"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := d.Put(names[(i+w)%len(names)], payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 300; i++ {
		names, err := d.List("")
		if err != nil {
			close(stop)
			wg.Wait()
			t.Fatalf("List aborted during racing Puts: %v", err)
		}
		for _, n := range names {
			if strings.Contains(n, ".gftp-") {
				close(stop)
				wg.Wait()
				t.Fatalf("List leaked an in-flight temp/partial: %s", n)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestDirStoreStreamPutWatermark pins the streaming-put lifecycle: the
// sidecar's (and therefore SIZE's) watermark tracks flushed regions
// exactly, FinishPut commits atomically and removes the sidecar, and
// the committed bytes round-trip.
func TestDirStoreStreamPutWatermark(t *testing.T) {
	d := newTestDirStore(t)
	want := make([]byte, 100_000)
	for i := range want {
		want[i] = byte(i * 13)
	}
	if err := d.BeginPut("dir/obj", 0); err != nil {
		t.Fatal(err)
	}
	const region = 7_001
	for off := 0; off < len(want); off += region {
		end := off + region
		if end > len(want) {
			end = len(want)
		}
		if err := d.PutRegion("dir/obj", int64(off), want[off:end]); err != nil {
			t.Fatal(err)
		}
		// SIZE mid-flight is the exact delivered watermark.
		if n, err := d.Size("dir/obj"); err != nil || n != int64(end) {
			t.Fatalf("mid-flight Size=%d err=%v, want %d", n, err, end)
		}
	}
	// Non-contiguous and misordered regions are rejected.
	if err := d.PutRegion("dir/obj", int64(len(want))+10, []byte("gap")); err == nil {
		t.Fatal("gap region accepted")
	}
	if err := d.FinishPut("dir/obj", int64(len(want))); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("dir/obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("committed object differs (err=%v)", err)
	}
	if _, err := os.Stat(partialPath(filepath.Join(d.Root(), "dir/obj"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("sidecar survived FinishPut (stat err=%v)", err)
	}
	// Wrong finish size is rejected.
	if err := d.BeginPut("short", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRegion("short", 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := d.FinishPut("short", 99); err == nil {
		t.Fatal("FinishPut with wrong size succeeded")
	}
	// PutRegion without BeginPut is ErrNotFound, like MemStore.
	if err := d.PutRegion("never", 0, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("PutRegion before BeginPut = %v, want ErrNotFound", err)
	}
}

// TestDirStoreAbortKeepsWatermarkForResume: AbortPut releases the file
// handle but preserves the sidecar, SIZE keeps reporting the
// watermark, and a resumed BeginPut at that watermark completes the
// object.
func TestDirStoreAbortKeepsWatermarkForResume(t *testing.T) {
	d := newTestDirStore(t)
	want := bytes.Repeat([]byte{5}, 80_000)
	const cut = 48_000
	if err := d.BeginPut("obj", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRegion("obj", 0, want[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := d.AbortPut("obj"); err != nil {
		t.Fatal(err)
	}
	wm, err := d.Size("obj")
	if err != nil || wm != cut {
		t.Fatalf("post-abort watermark=%d err=%v, want %d", wm, err, cut)
	}
	// Get must not see the uncommitted partial.
	if _, err := d.Get("obj"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of uncommitted object = %v, want ErrNotFound", err)
	}
	// Resume exactly at the watermark.
	if err := d.BeginPut("obj", wm); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRegion("obj", wm, want[cut:]); err != nil {
		t.Fatal(err)
	}
	if err := d.FinishPut("obj", int64(len(want))); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed object differs (err=%v)", err)
	}
	// A restart offset beyond the watermark is rejected.
	if err := d.BeginPut("obj", int64(len(want))+1); err == nil {
		t.Fatal("BeginPut beyond stored bytes succeeded")
	}
}

// TestDirStoreBeginPutSeedsFromCommitted mirrors MemStore's
// truncate-in-place resume: with no sidecar present, a BeginPut at
// base > 0 validates against the committed object and seeds the
// partial with its prefix, so appending a suffix yields the spliced
// object.
func TestDirStoreBeginPutSeedsFromCommitted(t *testing.T) {
	d := newTestDirStore(t)
	v1 := bytes.Repeat([]byte{1}, 60_000)
	if err := d.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	const base = 25_000
	suffix := bytes.Repeat([]byte{2}, 10_000)
	if err := d.BeginPut("obj", base); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRegion("obj", base, suffix); err != nil {
		t.Fatal(err)
	}
	if err := d.FinishPut("obj", base+int64(len(suffix))); err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, v1[:base]...), suffix...)
	got, err := d.Get("obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("spliced object differs (err=%v)", err)
	}
	// Base beyond the committed size is rejected and leaves no sidecar.
	if err := d.BeginPut("missing", 10); err == nil {
		t.Fatal("BeginPut resume on a missing object succeeded")
	}
	if _, err := os.Stat(partialPath(filepath.Join(d.Root(), "missing"))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("rejected BeginPut left a sidecar (stat err=%v)", err)
	}
}

// TestDirStoreSnapshotSurvivesRewrite is the disk counterpart of the
// MemStore snapshot test: an open-handle snapshot keeps serving its
// version while a streaming put (write to sidecar, rename at finish)
// replaces the path, and a concurrent Get during the rewrite still
// sees the previous committed version.
func TestDirStoreSnapshotSurvivesRewrite(t *testing.T) {
	d := newTestDirStore(t)
	v1 := bytes.Repeat([]byte{1}, 300_000)
	if err := d.Put("obj", v1); err != nil {
		t.Fatal(err)
	}
	snap1, size1, err := d.SnapshotObject("obj")
	if err != nil || size1 != int64(len(v1)) {
		t.Fatalf("snapshot: size=%d err=%v", size1, err)
	}
	defer snap1.(interface{ Close() error }).Close()

	v2 := bytes.Repeat([]byte{2}, 400_000)
	if err := d.BeginPut("obj", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRegion("obj", 0, v2[:150_000]); err != nil {
		t.Fatal(err)
	}
	// Mid-rewrite: committed readers still see v1.
	cur, err := d.Get("obj")
	if err != nil || !bytes.Equal(cur, v1) {
		t.Fatalf("Get mid-rewrite returned the uncommitted partial (err=%v)", err)
	}
	if err := d.PutRegion("obj", 150_000, v2[150_000:]); err != nil {
		t.Fatal(err)
	}
	if err := d.FinishPut("obj", int64(len(v2))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readSnapshot(t, snap1, size1), v1) {
		t.Fatal("pre-rewrite snapshot observed the rewrite")
	}
	cur, err = d.Get("obj")
	if err != nil || !bytes.Equal(cur, v2) {
		t.Fatalf("store holds wrong version after rewrite (err=%v)", err)
	}
}

// TestDirStoreStreamPutterViaSharedHelper replays the MemStore
// region-growth drill against the disk store, pinning that both
// StreamPutter implementations agree byte-for-byte.
func TestDirStoreStreamPutterViaSharedHelper(t *testing.T) {
	d := newTestDirStore(t)
	want := make([]byte, 123_457)
	for i := range want {
		want[i] = byte(i * 7)
	}
	putRegions(t, d, "obj", 0, want, 613)
	got, err := d.Get("obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("region-built object differs")
	}
	if n, _ := d.Size("obj"); n != int64(len(want)) {
		t.Fatalf("Size=%d, want %d", n, len(want))
	}
}

// TestDirStorePutRegionRejectsRewrite pins the PutRegion contract
// MemStore shares: a region that does not start at the watermark is
// refused, and the put goes on to commit exactly what was appended.
func TestDirStorePutRegionRejectsRewrite(t *testing.T) {
	d := newTestDirStore(t)
	v1 := bytes.Repeat([]byte{1}, 1000)
	if err := d.BeginPut("obj", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.PutRegion("obj", 0, v1); err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{0, 999, 1001} {
		if err := d.PutRegion("obj", off, []byte{9}); err == nil {
			t.Fatalf("PutRegion at %d of a 1000-byte partial accepted", off)
		}
	}
	if err := d.FinishPut("obj", int64(len(v1))); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get("obj"); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("a refused region reached the object (err=%v)", err)
	}
}
