package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gftpvc/internal/gridftp"
)

// category is what a wrapped call is charged to when the traced run's
// wall time is split into shares. The order is the priority of the
// split: an instant during which several wrapped calls are running on
// different goroutines is charged to the first category present, and an
// instant with an op in flight and no wrapped call running is the
// engine's self time (framing, reassembly, scheduling, telemetry).
type category int

const (
	catStore category = iota
	catSink
	catConnData
	catConnCtrl
	nCategories
)

var categoryNames = [nCategories]string{"store", "sink", "conn_data", "conn_ctrl"}

// span is one record of trace-<workload>.json. Times are nanoseconds
// since the tracer was created. Op is the index of the transfer the
// span belongs to, -1 for a span of the whole run or of a connection
// that serves several ops.
type span struct {
	ID       int64            `json:"id"`
	Parent   int64            `json:"parent"`
	Op       int              `json:"op"`
	Name     string           `json:"name"`
	Start    int64            `json:"start_ns"`
	End      int64            `json:"end_ns"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

type interval struct{ start, end int64 }

// opRef names the op span that child spans attach to.
type opRef struct {
	id      int64
	index   int
	name    string
	start   int64
	objects []string
}

// tracer records spans from the harness's side of every boundary it
// owns: the client call, the sink and source, the store wrapper and the
// connection wrappers. It is only ever installed in a traced run.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	nextID int64
	spans  []span
	// busy holds the interval of every wrapped call, written spans or
	// not: connection reads and writes are too many to write out, but
	// the share split needs each of them.
	busy   [nCategories][]interval
	ops    []interval
	byName map[string]*opRef

	// current is the op of a workload that runs one op at a time; calls
	// that carry no object name attach to it.
	current atomic.Pointer[opRef]
	root    int64
}

func newTracer() *tracer {
	// The run's own span takes the first id.
	return &tracer{epoch: time.Now(), byName: make(map[string]*opRef), nextID: 1, root: 1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// startOp opens the span of op number index; store calls on any of the
// named objects attach to it until endOp.
func (t *tracer) startOp(index int, name string, objects ...string) *opRef {
	op := &opRef{index: index, name: name, start: t.now(), objects: objects}
	t.mu.Lock()
	t.nextID++
	op.id = t.nextID
	for _, o := range objects {
		t.byName[o] = op
	}
	t.mu.Unlock()
	t.current.Store(op)
	return op
}

// endOp closes the op's span and unbinds its objects, so that a call
// that arrives later is not taken for a child of an op that has ended.
func (t *tracer) endOp(op *opRef) {
	end := t.now()
	t.current.CompareAndSwap(op, nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, o := range op.objects {
		if t.byName[o] == op {
			delete(t.byName, o)
		}
	}
	t.spans = append(t.spans, span{ID: op.id, Parent: t.root, Op: op.index, Name: op.name, Start: op.start, End: end})
	t.ops = append(t.ops, interval{op.start, end})
}

// done records a wrapped call that began at start and ends now, as a
// child span of the op that owns object (or of the current op when
// object is empty).
func (t *tracer) done(cat category, name, object string, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	op := t.byName[object]
	if op == nil {
		op = t.current.Load()
	}
	t.nextID++
	s := span{ID: t.nextID, Parent: t.root, Op: -1, Name: name, Start: start, End: end}
	if op != nil {
		s.Parent, s.Op = op.id, op.index
	}
	t.spans = append(t.spans, s)
	t.busy[cat] = append(t.busy[cat], interval{start, end})
}

// child records an informative span under op that is not charged to any
// category (xferman.submit, xferman.wait).
func (t *tracer) child(op *opRef, name string, start int64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: op.id, Op: op.index, Name: name, Start: start, End: end})
}

// blocked records the interval of one connection read or write.
func (t *tracer) blocked(cat category, start, end int64) {
	t.mu.Lock()
	t.busy[cat] = append(t.busy[cat], interval{start, end})
	t.mu.Unlock()
}

// ---- connection wrappers ----

type connDir struct{ calls, bytes, blockedNs atomic.Int64 }

// tracedConn times every Read and Write and emits one span for the
// connection's lifetime when it closes.
type tracedConn struct {
	net.Conn
	t      *tracer
	cat    category
	name   string
	start  int64
	rd, wr connDir
	once   sync.Once
}

func (t *tracer) wrapConn(c net.Conn, cat category, name string) net.Conn {
	return &tracedConn{Conn: c, t: t, cat: cat, name: name, start: t.now()}
}

// account counts one call; charge says whether its interval takes part
// in the share split.
func (c *tracedConn) account(d *connDir, n int, start int64, charge bool) {
	end := c.t.now()
	d.calls.Add(1)
	d.bytes.Add(int64(n))
	d.blockedNs.Add(end - start)
	if charge {
		c.t.blocked(c.cat, start, end)
	}
}

// Read charges data-connection reads only. A control-connection read is
// where a session goroutine parks when it has nothing to do and where
// the client parks while the servers work: its length is the others'
// time, not the connection's.
func (c *tracedConn) Read(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Read(p)
	c.account(&c.rd, n, s, c.cat == catConnData)
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	s := c.t.now()
	n, err := c.Conn.Write(p)
	c.account(&c.wr, n, s, true)
	return n, err
}

func (c *tracedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() {
		t := c.t
		end := t.now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.nextID++
		t.spans = append(t.spans, span{
			ID: t.nextID, Parent: t.root, Op: -1, Name: c.name, Start: c.start, End: end,
			Counters: map[string]int64{
				"read_calls": c.rd.calls.Load(), "read_bytes": c.rd.bytes.Load(), "read_blocked_ns": c.rd.blockedNs.Load(),
				"write_calls": c.wr.calls.Load(), "write_bytes": c.wr.bytes.Load(), "write_blocked_ns": c.wr.blockedNs.Load(),
			},
		})
	})
	return err
}

// tracedListener wraps accepted connections. It forwards SetDeadline,
// which the server arms on its passive listeners, so the traced server
// bounds its accepts the way the measured one does.
type tracedListener struct {
	net.Listener
	t    *tracer
	cat  category
	name string
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.t.wrapConn(c, l.cat, l.name), nil
}

func (l *tracedListener) SetDeadline(d time.Time) error {
	if s, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return s.SetDeadline(d)
	}
	return nil
}

// listen is a gridftp.Config.DataListen / ControlListen hook.
func (t *tracer) listen(cat category, name string) func(network, addr string) (net.Listener, error) {
	return func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			return nil, err
		}
		return &tracedListener{Listener: ln, t: t, cat: cat, name: name}, nil
	}
}

// dialFunc is a gridftp.WithDialFunc hook for ONE client: a client
// dials its control channel first and data channels after.
func (t *tracer) dialFunc() func(network, addr string) (net.Conn, error) {
	var dialed atomic.Bool
	return func(network, addr string) (net.Conn, error) {
		c, err := net.DialTimeout(network, addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		if dialed.CompareAndSwap(false, true) {
			return t.wrapConn(c, catConnCtrl, "conn.ctrl.client"), nil
		}
		return t.wrapConn(c, catConnData, "conn.data.client"), nil
	}
}

// ---- sink and source ----

type tracedWriter struct {
	w io.Writer
	t *tracer
}

func (w tracedWriter) Write(p []byte) (int, error) {
	s := w.t.now()
	n, err := w.w.Write(p)
	w.t.done(catSink, "sink.write", "", s)
	return n, err
}

type tracedReader struct {
	r io.Reader
	t *tracer
}

func (r tracedReader) Read(p []byte) (int, error) {
	s := r.t.now()
	n, err := r.r.Read(p)
	r.t.done(catSink, "source.read", "", s)
	return n, err
}

// ---- store wrapper ----

// The wrapper is built from one piece per capability so that the value
// handed to the server satisfies exactly the optional interfaces of the
// store it wraps: the server picks its RETR source and its STOR engine
// by type assertion, and a wrapper that added or hid a capability would
// make the traced engine take another path than the measured one.

type storeBase struct {
	s gridftp.Store
	t *tracer
}

func (b storeBase) Get(name string) ([]byte, error) {
	s := b.t.now()
	data, err := b.s.Get(name)
	b.t.done(catStore, "store.get", name, s)
	return data, err
}

func (b storeBase) Put(name string, data []byte) error {
	s := b.t.now()
	err := b.s.Put(name, data)
	b.t.done(catStore, "store.put", name, s)
	return err
}

func (b storeBase) Size(name string) (int64, error) {
	s := b.t.now()
	n, err := b.s.Size(name)
	b.t.done(catStore, "store.size", name, s)
	return n, err
}

func (b storeBase) List(prefix string) ([]string, error) { return b.s.List(prefix) }

type storeReaderAt struct {
	s gridftp.ReaderAtStore
	t *tracer
}

func (r storeReaderAt) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	s := r.t.now()
	n, err := r.s.ReadObjectAt(name, p, off)
	r.t.done(catStore, "store.read_at", name, s)
	return n, err
}

type storeSnapshot struct {
	s gridftp.SnapshotStore
	t *tracer
}

// snapshotReader times the reads of one pinned view and forwards Close,
// which the server calls on snapshots that hold a file open.
type snapshotReader struct {
	r    io.ReaderAt
	t    *tracer
	name string
}

func (r snapshotReader) ReadAt(p []byte, off int64) (int, error) {
	s := r.t.now()
	n, err := r.r.ReadAt(p, off)
	r.t.done(catStore, "store.read_at", r.name, s)
	return n, err
}

func (r snapshotReader) Close() error {
	if c, ok := r.r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func (w storeSnapshot) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	s := w.t.now()
	r, size, err := w.s.SnapshotObject(name)
	w.t.done(catStore, "store.snapshot", name, s)
	if err != nil {
		return nil, 0, err
	}
	return snapshotReader{r: r, t: w.t, name: name}, size, nil
}

type storePutter struct {
	s gridftp.StreamPutter
	t *tracer
}

func (p storePutter) BeginPut(name string, base int64) error {
	s := p.t.now()
	err := p.s.BeginPut(name, base)
	p.t.done(catStore, "store.begin_put", name, s)
	return err
}

func (p storePutter) PutRegion(name string, off int64, b []byte) error {
	s := p.t.now()
	err := p.s.PutRegion(name, off, b)
	p.t.done(catStore, "store.put_region", name, s)
	return err
}

func (p storePutter) FinishPut(name string, size int64) error {
	s := p.t.now()
	err := p.s.FinishPut(name, size)
	p.t.done(catStore, "store.finish_put", name, s)
	return err
}

type storeAborter struct{ s gridftp.PutAborter }

func (a storeAborter) AbortPut(name string) error { return a.s.AbortPut(name) }

// wrapStore returns a tracing Store with exactly the optional
// interfaces of s. The three capability sets below are the ones the
// repo's stores have (Synthetic; Mem; Dir and Tiered); any other set is
// refused rather than approximated.
func (t *tracer) wrapStore(s gridftp.Store) (gridftp.Store, error) {
	ra, hasRA := s.(gridftp.ReaderAtStore)
	sn, hasSN := s.(gridftp.SnapshotStore)
	sp, hasSP := s.(gridftp.StreamPutter)
	ab, hasAB := s.(gridftp.PutAborter)
	base := storeBase{s, t}
	switch {
	case !hasRA && !hasSN && !hasSP && !hasAB:
		return base, nil
	case hasRA && !hasSN && hasSP && !hasAB:
		return struct {
			storeBase
			storeReaderAt
			storePutter
		}{base, storeReaderAt{ra, t}, storePutter{sp, t}}, nil
	case hasRA && hasSN && hasSP && !hasAB:
		return struct {
			storeBase
			storeReaderAt
			storeSnapshot
			storePutter
		}{base, storeReaderAt{ra, t}, storeSnapshot{sn, t}, storePutter{sp, t}}, nil
	case hasRA && hasSN && hasSP && hasAB:
		return struct {
			storeBase
			storeReaderAt
			storeSnapshot
			storePutter
			storeAborter
		}{base, storeReaderAt{ra, t}, storeSnapshot{sn, t}, storePutter{sp, t}, storeAborter{ab}}, nil
	}
	return nil, fmt.Errorf("wrapStore: %T has a capability set the wrapper does not reproduce", s)
}

// ---- analysis ----

// shares splits the time during which at least one op was in flight
// between the categories, by the priority order of category, and the
// residual: the ops' self time, their wall time minus the union of the
// wrapped calls made meanwhile (overlapping calls count once, calls
// outside any op not at all). The returned values sum to 1.
func shares(ops []interval, busy [nCategories][]interval) (share [nCategories]float64, residual float64) {
	const opCat = int(nCategories)
	type event struct {
		t     int64
		cat   int
		delta int
	}
	var events []event
	add := func(cat int, ivs []interval) {
		for _, iv := range ivs {
			if iv.end > iv.start {
				events = append(events, event{iv.start, cat, 1}, event{iv.end, cat, -1})
			}
		}
	}
	add(opCat, ops)
	for c := range busy {
		add(c, busy[c])
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t < events[j].t })
	var active [nCategories + 1]int
	var spent [nCategories + 1]int64 // last slot: residual
	var total, prev int64
	for _, e := range events {
		if d := e.t - prev; d > 0 && active[opCat] > 0 {
			slot := opCat
			for c := 0; c < opCat; c++ {
				if active[c] > 0 {
					slot = c
					break
				}
			}
			spent[slot] += d
			total += d
		}
		prev = e.t
		active[e.cat] += e.delta
	}
	if total == 0 {
		return share, 0
	}
	for c := 0; c < opCat; c++ {
		share[c] = float64(spent[c]) / float64(total)
	}
	return share, float64(spent[opCat]) / float64(total)
}

// misfits counts child spans of an op that do not lie inside the op's
// own span.
func misfits(spans []span) int {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	n := 0
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if ok && p.Op >= 0 && (s.Start < p.Start || s.End > p.End) {
			n++
		}
	}
	return n
}

// traceFile is what trace-<workload>.json holds.
type traceFile struct {
	Schema   string             `json:"schema"`
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops"`
	Summary  map[string]float64 `json:"summary"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path string, f traceFile) error {
	t.mu.Lock()
	f.Spans = append([]span{{ID: t.root, Op: -1, Name: "run", End: t.now()}}, t.spans...)
	t.mu.Unlock()
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(out).Encode(f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
