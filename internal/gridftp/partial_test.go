package gridftp

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestRetrPartial(t *testing.T) {
	store := NewMemStore()
	payload := randomPayload(1 << 20)
	store.Put("data.bin", payload)
	s := startServer(t, Config{Store: store, BlockSize: 16 << 10})
	c := login(t, s.Addr())
	c.SetParallelism(4)
	const off, length = 100_000, 250_000
	got, stats, err := fetch(c, "data.bin", Region{Offset: off, Length: length})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[off:off+length]) {
		t.Fatal("partial region corrupted")
	}
	if stats.Bytes != length {
		t.Errorf("stats.Bytes = %d, want %d", stats.Bytes, length)
	}
}

func TestRetrPartialBeyondEOF(t *testing.T) {
	store := NewMemStore()
	payload := randomPayload(10_000)
	store.Put("data.bin", payload)
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	// Region overruns the object: server truncates at EOF.
	got, _, err := fetch(c, "data.bin", Region{Offset: 8_000, Length: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[8_000:]) {
		t.Fatal("truncated region corrupted")
	}
}

func TestRetrPartialValidation(t *testing.T) {
	s := startServer(t, Config{})
	c := login(t, s.Addr())
	if _, _, err := fetch(c, "x", Region{Offset: -1, Length: 10}); err == nil {
		t.Error("negative offset should fail")
	}
	if _, _, err := fetch(c, "x", Region{Length: -1}); err == nil {
		t.Error("negative length should fail")
	}
	// Malformed ERET straight on the wire.
	if rep, err := c.cmd("ERET Q 0 10 x"); err != nil || rep.Code != 501 {
		t.Errorf("bad ERET mode: %+v, %v", rep, err)
	}
	if rep, err := c.cmd("ERET P -5 10 x"); err != nil || rep.Code != 501 {
		t.Errorf("bad ERET offset: %+v, %v", rep, err)
	}
	if rep, err := c.cmd("ERET P"); err != nil || rep.Code != 501 {
		t.Errorf("short ERET: %+v, %v", rep, err)
	}
}

func TestRestRestart(t *testing.T) {
	store := NewMemStore()
	payload := randomPayload(512 << 10)
	store.Put("data.bin", payload)
	s := startServer(t, Config{Store: store, BlockSize: 32 << 10})
	c := login(t, s.Addr())
	c.SetParallelism(2)
	// Simulate a failed transfer that got the first 200,000 bytes, then
	// resume from there.
	const resumeAt = 200_000
	rest, _, err := fetch(c, "data.bin", Region{Offset: resumeAt})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, payload[resumeAt:]) {
		t.Fatal("restarted region corrupted")
	}
	// The restart offset must not leak into the next plain RETR.
	full, _, err := fetch(c, "data.bin", Region{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("subsequent full RETR affected by earlier REST")
	}
}

func TestRestValidation(t *testing.T) {
	s := startServer(t, Config{})
	c := login(t, s.Addr())
	if _, _, err := fetch(c, "x", Region{Offset: -1}); err == nil {
		t.Error("negative restart should fail client-side")
	}
	if rep, err := c.cmd("REST notanumber"); err != nil || rep.Code != 501 {
		t.Errorf("bad REST: %+v, %v", rep, err)
	}
}

func TestRetrOffsetBeyondSize(t *testing.T) {
	store := NewMemStore()
	store.Put("x", []byte("tiny"))
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	if _, _, err := fetch(c, "x", Region{Offset: 100}); err == nil {
		t.Error("offset beyond size should fail")
	}
}

// DirStore tests

func TestDirStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := randomPayload(64 << 10)
	if err := ds.Put("sub/dir/data.bin", want); err != nil {
		t.Fatal(err)
	}
	got, err := ds.Get("sub/dir/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted")
	}
	n, err := ds.Size("sub/dir/data.bin")
	if err != nil || n != int64(len(want)) {
		t.Fatalf("Size = %d, %v", n, err)
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(filepath.Join(dir, "sub", "dir"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want 1", len(entries))
	}
}

func TestDirStoreMissing(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get missing: %v", err)
	}
	if _, err := ds.Size("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size missing: %v", err)
	}
}

func TestDirStoreEscapeRejected(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Path traversal must stay inside the root: "../x" cleans to "x".
	if err := ds.Put("../escape.bin", []byte("x")); err != nil {
		t.Fatalf("cleaned traversal should be confined, got %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "escape.bin")); err != nil {
		t.Error("traversal was not confined to the root")
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.bin")); err == nil {
		t.Error("object escaped the store root")
	}
	if err := ds.Put("", []byte("x")); err == nil {
		t.Error("empty name should fail")
	}
	if err := ds.Put("a\x00b", []byte("x")); err == nil {
		t.Error("NUL name should fail")
	}
}

func TestDirStoreValidation(t *testing.T) {
	if _, err := NewDirStore("/definitely/not/a/dir"); err == nil {
		t.Error("missing dir should fail")
	}
	f := filepath.Join(t.TempDir(), "f")
	os.WriteFile(f, []byte("x"), 0o644)
	if _, err := NewDirStore(f); err == nil {
		t.Error("file (not dir) should fail")
	}
}

func TestDirStoreSizeOfDirectory(t *testing.T) {
	dir := t.TempDir()
	ds, _ := NewDirStore(dir)
	os.Mkdir(filepath.Join(dir, "sub"), 0o755)
	if _, err := ds.Size("sub"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Size of directory: %v", err)
	}
}

func TestServerWithDirStore(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := randomPayload(256 << 10)
	if err := os.WriteFile(filepath.Join(dir, "data.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s := startServer(t, Config{Store: ds})
	c := login(t, s.Addr())
	c.SetParallelism(4)
	got, _, err := fetch(c, "data.bin", Region{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted through DirStore")
	}
	// And a STOR lands on disk.
	if _, err := upload(c, "up.bin", want[:1000], Region{}); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "up.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want[:1000]) {
		t.Fatal("stored payload corrupted")
	}
}

func TestMemStoreList(t *testing.T) {
	m := NewMemStore()
	for _, n := range []string{"run1/a", "run1/b", "run2/c"} {
		m.Put(n, []byte("x"))
	}
	all, err := m.List("")
	if err != nil || len(all) != 3 {
		t.Fatalf("List(\"\") = %v, %v", all, err)
	}
	if all[0] != "run1/a" || all[2] != "run2/c" {
		t.Errorf("not sorted: %v", all)
	}
	r1, _ := m.List("run1/")
	if len(r1) != 2 {
		t.Errorf("List(run1/) = %v", r1)
	}
}

func TestDirStoreList(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"run1/a.nc", "run1/b.nc", "top.nc"} {
		if err := ds.Put(n, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ds.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0] != "run1/a.nc" {
		t.Errorf("List = %v", all)
	}
	sub, _ := ds.List("run1/")
	if len(sub) != 2 {
		t.Errorf("List(run1/) = %v", sub)
	}
}

func TestSyntheticStoreList(t *testing.T) {
	s := &SyntheticStore{ObjectSize: 10}
	names, err := s.List("")
	if err != nil || names != nil {
		t.Errorf("synthetic List = %v, %v", names, err)
	}
}

func TestNLSTOverProtocol(t *testing.T) {
	store := NewMemStore()
	for _, n := range []string{"d/x", "d/y", "z"} {
		store.Put(n, []byte("1"))
	}
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	names, err := c.List("")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("List = %v", names)
	}
	sub, err := c.List("d/")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0] != "d/x" {
		t.Errorf("List(d/) = %v", sub)
	}
	empty, err := c.List("nothing/")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("List(nothing/) = %v", empty)
	}
}
