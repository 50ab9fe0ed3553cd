package gridftp

import (
	"bytes"
	"container/list"
	"errors"
	"io"

	"sync"

	"gftpvc/internal/telemetry"
)

// TieredOptions tunes a TieredStore.
type TieredOptions struct {
	// MaxHotBytes bounds the RAM the hot tier may hold (default 256 MiB).
	MaxHotBytes int64
	// MaxHotObjectBytes is the largest single object admitted to the hot
	// tier; bigger objects are always served from disk (default
	// MaxHotBytes/8). Capping per-object admission keeps one huge
	// dataset from evicting the whole working set.
	MaxHotObjectBytes int64
	// Telemetry, when set, receives hit/miss/eviction counters and the
	// hot-tier occupancy gauges. Nil disables instrumentation.
	Telemetry *telemetry.Hub
}

// TieredStore keeps hot objects in a bounded in-memory LRU and serves
// cold ones from a DirStore — the mem/disk endpoint seam the paper's
// Fig. 1 quadrants distinguish, on one live server. Writes are
// write-through: every Put and every streaming put lands on disk first,
// so an eviction only drops a cache copy, never data. Reads admit the
// object into the hot tier (when it fits) and evict least-recently-used
// entries past the byte bound.
//
// TieredStore implements the full streaming surface. Streaming puts
// bypass the hot tier entirely — they delegate to the DirStore's
// partial-file path, keeping its exact on-disk SIZE watermark and
// resume semantics — and invalidate any cached copy so readers never
// see a stale version.
type TieredStore struct {
	cold    *DirStore
	maxHot  int64
	maxObj  int64
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	hot     int64

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	hotBytes  *telemetry.Gauge
	hotObjs   *telemetry.Gauge
}

// hotEntry is one cached object. The data slice is immutable once
// published: invalidation removes the entry, it never rewrites it, so
// snapshot readers can alias it safely.
type hotEntry struct {
	name string
	data []byte
}

// NewTieredStore layers a bounded hot cache over a disk store.
func NewTieredStore(cold *DirStore, opts TieredOptions) (*TieredStore, error) {
	if cold == nil {
		return nil, errors.New("gridftp: nil cold store")
	}
	if opts.MaxHotBytes == 0 {
		opts.MaxHotBytes = 256 << 20
	}
	if opts.MaxHotBytes < 0 {
		return nil, errors.New("gridftp: negative hot-tier bound")
	}
	if opts.MaxHotObjectBytes == 0 {
		opts.MaxHotObjectBytes = opts.MaxHotBytes / 8
	}
	t := &TieredStore{
		cold:    cold,
		maxHot:  opts.MaxHotBytes,
		maxObj:  opts.MaxHotObjectBytes,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}
	if hub := opts.Telemetry; hub != nil {
		t.hits = hub.Counter("gridftp_tiered_hot_hits_total",
			"Reads served from the tiered store's in-memory hot tier.")
		t.misses = hub.Counter("gridftp_tiered_hot_misses_total",
			"Reads that fell through to the tiered store's disk tier.")
		t.evictions = hub.Counter("gridftp_tiered_evictions_total",
			"Objects evicted from the hot tier by the byte bound, LRU first.")
		t.hotBytes = hub.Gauge("gridftp_tiered_hot_bytes",
			"Bytes currently held by the tiered store's hot tier.")
		t.hotObjs = hub.Gauge("gridftp_tiered_hot_objects",
			"Objects currently held by the tiered store's hot tier.")
	}
	return t, nil
}

// lookup returns the cached bytes for name, bumping its recency. The
// returned slice is the immutable cache copy — callers must not write
// to it.
func (t *TieredStore) lookup(name string) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[name]
	if !ok {
		t.misses.Inc()
		return nil, false
	}
	t.lru.MoveToFront(e)
	t.hits.Inc()
	return e.Value.(*hotEntry).data, true
}

// admit publishes data as name's hot copy (taking ownership of the
// slice) and evicts LRU entries past the byte bound. Oversized objects
// are skipped — they stream from disk instead of thrashing the cache.
func (t *TieredStore) admit(name string, data []byte) {
	n := int64(len(data))
	if n > t.maxObj || n > t.maxHot {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[name]; ok {
		t.hot -= int64(len(e.Value.(*hotEntry).data))
		t.lru.Remove(e)
		delete(t.entries, name)
	}
	t.entries[name] = t.lru.PushFront(&hotEntry{name: name, data: data})
	t.hot += n
	for t.hot > t.maxHot {
		back := t.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*hotEntry)
		t.hot -= int64(len(victim.data))
		t.lru.Remove(back)
		delete(t.entries, victim.name)
		t.evictions.Inc()
	}
	t.hotBytes.Set(t.hot)
	t.hotObjs.Set(int64(len(t.entries)))
}

// invalidate drops name's hot copy, if any. Readers already holding a
// snapshot of the old slice keep it — the slice itself is never
// rewritten.
func (t *TieredStore) invalidate(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.entries[name]
	if !ok {
		return
	}
	t.hot -= int64(len(e.Value.(*hotEntry).data))
	t.lru.Remove(e)
	delete(t.entries, name)
	t.hotBytes.Set(t.hot)
	t.hotObjs.Set(int64(len(t.entries)))
}

// Get implements Store. The returned slice is a copy.
func (t *TieredStore) Get(name string) ([]byte, error) {
	if data, ok := t.lookup(name); ok {
		out := make([]byte, len(data))
		copy(out, data)
		return out, nil
	}
	data, err := t.cold.Get(name)
	if err != nil {
		return nil, err
	}
	// cold.Get hands back a fresh slice; cache it and copy for the
	// caller so the cached copy stays immutable.
	t.admit(name, data)
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Put implements Store, write-through: disk first (durable, atomic
// rename), then the hot tier.
func (t *TieredStore) Put(name string, data []byte) error {
	if err := t.cold.Put(name, data); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	t.admit(name, cp)
	return nil
}

// Size implements Store. A hot copy answers from memory; otherwise the
// disk tier answers — including the partial-sidecar watermark for
// in-flight or failed streaming puts, which never have a hot copy.
func (t *TieredStore) Size(name string) (int64, error) {
	if data, ok := t.lookup(name); ok {
		return int64(len(data)), nil
	}
	return t.cold.Size(name)
}

// List implements Store: the disk tier is the source of truth.
func (t *TieredStore) List(prefix string) ([]string, error) { return t.cold.List(prefix) }

// ReadObjectAt implements ReaderAtStore.
func (t *TieredStore) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	if data, ok := t.lookup(name); ok {
		if off < 0 || off > int64(len(data)) {
			return 0, io.EOF
		}
		n := copy(p, data[off:])
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	return t.cold.ReadObjectAt(name, p, off)
}

// SnapshotObject implements SnapshotStore: a hot copy is aliased
// zero-copy (the cache never rewrites a published slice). A cold object
// that fits the admission cap is pulled into the hot tier — this is the
// path repeated RETRs of a working set warm the cache through — and
// anything bigger pins an open file handle via the DirStore, so large
// objects still stream without a RAM copy.
func (t *TieredStore) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	if data, ok := t.lookup(name); ok {
		return bytes.NewReader(data), int64(len(data)), nil
	}
	if n, err := t.cold.Size(name); err == nil && n <= t.maxObj && n <= t.maxHot {
		data, err := t.cold.Get(name)
		if err != nil {
			return nil, 0, err
		}
		t.admit(name, data)
		return bytes.NewReader(data), int64(len(data)), nil
	}
	return t.cold.SnapshotObject(name)
}

// BeginPut implements StreamPutter: the rewrite goes to disk, and any
// hot copy of the previous version is dropped immediately so no reader
// admits a version that is being superseded.
func (t *TieredStore) BeginPut(name string, base int64) error {
	t.invalidate(name)
	return t.cold.BeginPut(name, base)
}

// PutRegion implements StreamPutter.
func (t *TieredStore) PutRegion(name string, off int64, p []byte) error {
	return t.cold.PutRegion(name, off, p)
}

// FinishPut implements StreamPutter. The hot tier is invalidated again
// at commit: a concurrent Get during the streaming put may have
// re-admitted the old committed version.
func (t *TieredStore) FinishPut(name string, size int64) error {
	if err := t.cold.FinishPut(name, size); err != nil {
		return err
	}
	t.invalidate(name)
	return nil
}

// AbortPut implements PutAborter.
func (t *TieredStore) AbortPut(name string) error { return t.cold.AbortPut(name) }
