package gridftp

import (
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
// REST offset. PutRegion appends [off, off+len(p)) at the watermark:
// off is the object's current size, as the windowed receiver's
// ascending contiguous flushes always are, and a region anywhere else
// is refused.
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
	objects map[string]memObject
}

// memObject is one object's bytes as a list of chunks, each filled by
// one Put or PutRegion copy. Bytes once in a chunk are never written
// again: Put replaces the list, PutRegion appends (a small region into
// the tail chunk's spare room, past every byte a reader can see), and
// BeginPut truncates with the tail chunk's capacity pinned.
type memObject struct {
	chunks [][]byte
	size   int64
}

// memChunkFloor is the smallest chunk PutRegion makes: a region below
// it goes into the tail chunk's spare room, so a stream of tiny regions
// costs a chunk per memChunkFloor bytes rather than one per region.
const memChunkFloor = 64 << 10

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string]memObject)}
}

// object returns the named object or ErrNotFound; the caller holds mu.
func (m *MemStore) object(name string) (memObject, error) {
	o, ok := m.objects[name]
	if !ok {
		return memObject{}, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return o, nil
}

// Get implements Store. The returned slice is a copy.
func (m *MemStore) Get(name string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, err := m.object(name)
	if err != nil {
		return nil, err
	}
	out := make([]byte, o.size)
	o.readAt(out, 0)
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
	m.objects[name] = memObject{chunks: [][]byte{cp}, size: int64(len(cp))}
	m.mu.Unlock()
	return nil
}

// SnapshotObject implements SnapshotStore without copying bytes: the
// reader holds its own copy of the chunk list, whose chunks no later
// write reaches (see memObject).
func (m *MemStore) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, err := m.object(name)
	if err != nil {
		return nil, 0, err
	}
	o.chunks = append([][]byte(nil), o.chunks...)
	return o, o.size, nil
}

// ReadAt serves a snapshot with bytes.Reader's io.ReaderAt behaviour.
func (o memObject) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("gridftp: negative snapshot offset")
	}
	if off >= o.size {
		return 0, io.EOF
	}
	return o.readAt(p, off)
}

// readAt copies the bytes at off into p, across chunks; a read that
// runs past the end (or starts there) is short, with io.EOF.
func (o memObject) readAt(p []byte, off int64) (int, error) {
	if off < 0 || off > o.size {
		return 0, io.EOF
	}
	n := 0
	for _, c := range o.chunks {
		if n == len(p) {
			break
		}
		if off >= int64(len(c)) {
			off -= int64(len(c))
			continue
		}
		n += copy(p[n:], c[off:])
		off = 0
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadObjectAt implements ReaderAtStore.
func (m *MemStore) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, err := m.object(name)
	if err != nil {
		return 0, err
	}
	return o.readAt(p, off)
}

// BeginPut implements StreamPutter: the object is truncated to base so
// its Size tracks the delivered watermark during a streaming STOR. The
// chunk the cut lands in keeps its bytes but loses its spare capacity,
// so no later region is written over bytes an earlier snapshot reads.
func (m *MemStore) BeginPut(name string, base int64) error {
	if name == "" {
		return errors.New("gridftp: empty object name")
	}
	if base < 0 {
		return fmt.Errorf("gridftp: negative put base %d", base)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.objects[name]
	if o.size < base {
		return fmt.Errorf("gridftp: restart offset %d beyond stored %d bytes", base, o.size)
	}
	keep, rest := 0, base
	for ; rest > 0; keep++ {
		if c := o.chunks[keep]; int64(len(c)) >= rest {
			o.chunks[keep] = c[:rest:rest]
		}
		rest -= int64(len(o.chunks[keep]))
	}
	clear(o.chunks[keep:]) // drop the cut chunks now, not when their slots are reused
	o.chunks, o.size = o.chunks[:keep], base
	m.objects[name] = o
	return nil
}

// PutRegion implements StreamPutter. A region must start at the
// object's current size, as the windowed receiver flushes them;
// rewriting committed bytes is refused. The region is copied once, into
// a chunk of its own or, below memChunkFloor, the tail chunk's spare
// room — nothing is copied again as the object grows.
func (m *MemStore) PutRegion(name string, off int64, p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, ok := m.objects[name]
	if !ok {
		return fmt.Errorf("%w: %s (PutRegion before BeginPut)", ErrNotFound, name)
	}
	if off != o.size {
		return fmt.Errorf("gridftp: non-contiguous region at %d (have %d bytes)", off, o.size)
	}
	if len(p) == 0 {
		return nil
	}
	tail := len(o.chunks) - 1
	switch {
	case len(p) >= memChunkFloor:
		c := make([]byte, len(p))
		copy(c, p)
		o.chunks = append(o.chunks, c)
	case tail >= 0 && cap(o.chunks[tail])-len(o.chunks[tail]) >= len(p):
		o.chunks[tail] = append(o.chunks[tail], p...)
	default:
		o.chunks = append(o.chunks, append(make([]byte, 0, memChunkFloor), p...))
	}
	o.size += int64(len(p))
	m.objects[name] = o
	return nil
}

// FinishPut implements StreamPutter.
func (m *MemStore) FinishPut(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o, err := m.object(name)
	if err != nil {
		return err
	}
	if o.size != size {
		return fmt.Errorf("gridftp: finish size %d, stored %d bytes", size, o.size)
	}
	return nil
}

// Size implements Store.
func (m *MemStore) Size(name string) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, err := m.object(name)
	return o.size, err
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
