package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Store is the backend a GridFTP server moves data against. The paper's
// four NERSC–ANL test categories (mem-mem, mem-disk, disk-mem, disk-disk)
// differ only in which backend the endpoints use; MemStore plays the
// memory role and a rate-limited wrapper can model a disk subsystem.
type Store interface {
	// Get returns the named object's contents.
	Get(name string) ([]byte, error)
	// Put stores the named object.
	Put(name string, data []byte) error
	// Size returns the object's length in bytes.
	Size(name string) (int64, error)
	// List returns the names of objects with the given prefix, sorted.
	List(prefix string) ([]string, error)
}

// ErrNotFound reports a missing object.
var ErrNotFound = errors.New("gridftp: object not found")

// ReaderAtStore is the streaming read side of a Store, which Serve
// requires: RETR and CKSM read stripes directly into per-connection
// buffers, never materializing the whole object with Get.
// ReadObjectAt follows io.ReaderAt semantics (short reads at the
// object's tail return io.EOF with n > 0).
type ReaderAtStore interface {
	ReadObjectAt(name string, p []byte, off int64) (int, error)
}

// SnapshotStore is an optional refinement of ReaderAtStore. Each
// ReadObjectAt resolves the object anew, so a RETR overlapping a
// concurrent Put can interleave old- and new-version bytes in one
// response. SnapshotObject instead pins one immutable view of the
// object that the server reads for the transfer's whole duration.
// Stores whose ReadObjectAt is already version-stable (stateless
// generators, copy-on-write files) don't need it.
type SnapshotStore interface {
	SnapshotObject(name string) (r io.ReaderAt, size int64, err error)
}

// StreamPutter is the streaming write side of a Store, which Serve
// requires: the server receives every STOR through a bounded
// reassembly window, committing each contiguous region as it flushes
// rather than buffering the object in RAM.
//
// BeginPut prepares the named object to receive data from byte offset
// base onward, truncating any existing content to base — so after a
// failed transfer the object's Size is exactly the delivered
// high-water mark, which is what a resume-aware retry probes for its
// REST offset. PutRegion appends/overwrites [off, off+len(p)); the
// windowed receiver always calls it in ascending contiguous order.
// FinishPut seals the object at its final size.
type StreamPutter interface {
	BeginPut(name string, base int64) error
	PutRegion(name string, off int64, p []byte) error
	FinishPut(name string, size int64) error
}

// PutAborter is an optional companion to StreamPutter: the server
// calls AbortPut when a streaming STOR fails after BeginPut engaged,
// so stores holding per-put resources (an open partial file) can
// release them. The delivered watermark must survive the abort —
// Size keeps reporting it, because it is the REST offset a
// resume-aware retry probes. Stores without per-put state (MemStore)
// don't need it.
type PutAborter interface {
	AbortPut(name string) error
}

// MemStore is an in-memory Store, safe for concurrent use.
type MemStore struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string][]byte)}
}

// Get implements Store. The returned slice is a copy.
func (m *MemStore) Get(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Put implements Store.
func (m *MemStore) Put(name string, data []byte) error {
	if name == "" {
		return errors.New("gridftp: empty object name")
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.objects[name] = cp
	m.mu.Unlock()
	return nil
}

// SnapshotObject implements SnapshotStore without copying: the
// returned reader aliases the stored slice, which stays immutable
// because writers never scribble over a published array — Put swaps in
// a fresh copy, and BeginPut pins the partial's capacity at its base
// so the first PutRegion growth reallocates away from any aliased
// array before bytes land.
func (m *MemStore) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return bytes.NewReader(data), int64(len(data)), nil
}

// ReadObjectAt implements ReaderAtStore.
func (m *MemStore) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if off < 0 || off > int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// BeginPut implements StreamPutter: the object is truncated to base so
// its Size tracks the delivered watermark during a streaming STOR. The
// full slice expression pins capacity at base on purpose — the first
// region appended afterwards must reallocate, so arrays aliased by
// earlier SnapshotObject readers are never written in place.
func (m *MemStore) BeginPut(name string, base int64) error {
	if name == "" {
		return errors.New("gridftp: empty object name")
	}
	if base < 0 {
		return fmt.Errorf("gridftp: negative put base %d", base)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data := m.objects[name]
	if int64(len(data)) < base {
		return fmt.Errorf("gridftp: restart offset %d beyond stored %d bytes", base, len(data))
	}
	m.objects[name] = data[:base:base]
	return nil
}

// PutRegion implements StreamPutter. Regions must arrive in ascending
// contiguous order from the BeginPut base, as the windowed receiver
// flushes them — rewriting already-committed bytes would be visible to
// concurrent SnapshotObject readers. Growth doubles the capacity so a
// streaming STOR of an N-byte object copies O(N) total, not a full
// object per flushed window.
func (m *MemStore) PutRegion(name string, off int64, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.objects[name]
	if !ok {
		return fmt.Errorf("%w: %s (PutRegion before BeginPut)", ErrNotFound, name)
	}
	end := off + int64(len(p))
	if off < 0 || off > int64(len(data)) {
		return fmt.Errorf("gridftp: non-contiguous region at %d (have %d bytes)", off, len(data))
	}
	if end > int64(len(data)) {
		if end > int64(cap(data)) {
			newCap := int64(cap(data)) * 2
			if newCap < end {
				newCap = end
			}
			grown := make([]byte, end, newCap)
			copy(grown, data)
			data = grown
		} else {
			data = data[:end]
		}
	}
	copy(data[off:end], p)
	m.objects[name] = data
	return nil
}

// FinishPut implements StreamPutter.
func (m *MemStore) FinishPut(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.objects[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if int64(len(data)) != size {
		return fmt.Errorf("gridftp: finish size %d, stored %d bytes", size, len(data))
	}
	return nil
}

// Size implements Store.
func (m *MemStore) Size(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.objects[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(data)), nil
}

// List implements Store.
func (m *MemStore) List(prefix string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []string
	for name := range m.objects {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// SyntheticStore serves deterministic pseudo-random content of a
// configured size for any name, the equivalent of GridFTP's memory-to-
// memory test transfers (/dev/zero endpoints): no disk is touched and the
// payload needs no preloading. Puts are discarded after validation.
type SyntheticStore struct {
	// ObjectSize is the size reported and served for every object.
	ObjectSize int64
}

// Get implements Store with a repeating pattern payload.
func (s *SyntheticStore) Get(name string) ([]byte, error) {
	if s.ObjectSize < 0 {
		return nil, errors.New("gridftp: negative synthetic size")
	}
	data := make([]byte, s.ObjectSize)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return data, nil
}

// Put implements Store; the payload is validated and dropped.
func (s *SyntheticStore) Put(name string, data []byte) error {
	if name == "" {
		return errors.New("gridftp: empty object name")
	}
	return nil
}

// ReadObjectAt implements ReaderAtStore by generating the pattern for
// just the requested region, so synthetic objects far larger than RAM
// stream without ever being materialized.
func (s *SyntheticStore) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	if s.ObjectSize < 0 {
		return 0, errors.New("gridftp: negative synthetic size")
	}
	if off < 0 || off >= s.ObjectSize {
		return 0, io.EOF
	}
	n := len(p)
	if rem := s.ObjectSize - off; int64(n) > rem {
		n = int(rem)
	}
	for i := 0; i < n; i++ {
		p[i] = byte((off + int64(i)) * 131)
	}
	if int64(n) < int64(len(p)) {
		return n, io.EOF
	}
	return n, nil
}

// BeginPut implements StreamPutter; synthetic puts are discarded.
func (s *SyntheticStore) BeginPut(name string, base int64) error {
	if name == "" {
		return errors.New("gridftp: empty object name")
	}
	return nil
}

// PutRegion implements StreamPutter; the payload is dropped.
func (s *SyntheticStore) PutRegion(name string, off int64, p []byte) error { return nil }

// FinishPut implements StreamPutter.
func (s *SyntheticStore) FinishPut(name string, size int64) error { return nil }

// Size implements Store.
func (s *SyntheticStore) Size(name string) (int64, error) { return s.ObjectSize, nil }

// List implements Store; a synthetic store has no enumerable catalogue.
func (s *SyntheticStore) List(prefix string) ([]string, error) { return nil, nil }
