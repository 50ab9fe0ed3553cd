package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/experiments"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/xferman"
)

const (
	bulkSize  = 64 << 20
	smallSize = 64 << 10
	smallObjs = 64
)

// workload is one of the benchmark's four sets of inputs. Op counts are
// fixed, never a duration: ops = opsPerSecond × -seconds, where
// opsPerSecond is the rate of the reference box, so that a run there
// lasts about -seconds and the count is the same on every commit.
type workload struct {
	name         string
	opsPerSecond float64
	warmup       int
	concurrency  int
	live         bool // moves bytes over loopback; reports the wall-clock metrics
	setup        func(seed int64, t *tracer) (runner, error)
}

// runner is a workload that has been set up.
type runner interface {
	// op runs transfer number i and checks what it delivered. Warm-up
	// ops get negative numbers.
	op(ctx context.Context, i int) error
	// begin marks the start of the timed section: payload counts from
	// here.
	begin()
	// verify runs after the timed section: full content comparison and
	// byte conservation across every surface that counts bytes. Bytes
	// are conserved over the rig's whole life, warm-up included: the
	// server publishes its counters after it replies, so a reading taken
	// between two ops can miss the op before it.
	verify(ops int) error
	// payload is the number of verified payload bytes the timed section
	// delivered.
	payload() int64
	close()
}

var workloads = []*workload{
	{name: "bulk_retr", opsPerSecond: 15, warmup: 10, concurrency: 1, live: true, setup: setupBulkRetr},
	{name: "bulk_stor", opsPerSecond: 10, warmup: 8, concurrency: 1, live: true, setup: setupBulkStor},
	{name: "small_files", opsPerSecond: 300, warmup: 200, concurrency: 2, live: true, setup: setupSmallFiles},
	{name: "exhibits", opsPerSecond: 0.15, warmup: 0, concurrency: 1, setup: setupExhibits},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func seededBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// ---- rig ----

// server is one in-process gftpd with the defaults a gftpd user gets
// (256 KiB blocks, 8 MiB window) and a telemetry hub.
type server struct {
	*gridftp.Server
	store gridftp.Store // the store itself, never the tracing wrapper
	hub   *telemetry.Hub
}

func startServer(store gridftp.Store, t *tracer) (*server, error) {
	hub := telemetry.NewHub()
	cfg := gridftp.Config{Addr: "127.0.0.1:0", Store: store, Telemetry: hub}
	if t != nil {
		wrapped, err := t.wrapStore(store)
		if err != nil {
			return nil, err
		}
		cfg.Store = wrapped
		cfg.DataListen = t.listen(catConnData, "conn.data.server")
		cfg.ControlListen = t.listen(catConnCtrl, "conn.ctrl.server")
	}
	srv, err := gridftp.Serve(cfg)
	if err != nil {
		return nil, err
	}
	return &server{Server: srv, store: store, hub: hub}, nil
}

// delivered reads the server's exactly-once payload counter for op.
func (s *server) delivered(op string) int64 {
	return s.hub.Counter("gridftp_server_delivered_bytes_total",
		"Payload bytes delivered to the store exactly once, by operation.",
		telemetry.L("op", op)).Value()
}

// awaitDelivered waits for the server's delivered counter to reach
// want. The server publishes its metrics after it writes the 226, so a
// client that has its reply can be a moment ahead of the counter.
func (s *server) awaitDelivered(op string, want int64) error {
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := s.delivered(op)
		if got == want {
			return nil
		}
		if got > want || time.Now().After(deadline) {
			return fmt.Errorf("conservation: server delivered %d bytes on %s, harness counted %d", got, op, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func dialClient(addr string, hub *telemetry.Hub, t *tracer) (*gridftp.Client, error) {
	opts := []gridftp.Option{gridftp.WithTelemetry(hub)}
	if t != nil {
		opts = append(opts, gridftp.WithDialFunc(t.dialFunc()))
	}
	c, err := gridftp.Dial(addr, opts...)
	if err != nil {
		return nil, err
	}
	if err := c.Login("anonymous", "bench@"); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// ---- bulk_retr ----

// compareSink checks every write against the expected payload at the
// position the write lands on; RetrTo delivers contiguous bytes in
// order, so the position is the count so far.
type compareSink struct {
	want []byte
	pos  int
}

func (s *compareSink) Write(p []byte) (int, error) {
	if s.pos+len(p) > len(s.want) || !bytes.Equal(p, s.want[s.pos:s.pos+len(p)]) {
		return 0, fmt.Errorf("sink: bytes at offset %d differ from the payload", s.pos)
	}
	s.pos += len(p)
	return len(p), nil
}

type bulkRetr struct {
	t    *tracer
	srv  *server
	cli  *gridftp.Client
	data []byte

	// Byte counts since set-up; timedFrom is sinkBytes at begin.
	sinkBytes, clientBytes, timedFrom int64
}

func setupBulkRetr(seed int64, t *tracer) (runner, error) {
	r := &bulkRetr{t: t, data: seededBytes(seed, bulkSize)}
	store := gridftp.NewMemStore()
	if err := store.Put("bulk.bin", r.data); err != nil {
		return nil, err
	}
	var err error
	if r.srv, err = startServer(store, t); err != nil {
		return nil, err
	}
	if r.cli, err = dialClient(r.srv.Addr(), telemetry.NewHub(), t); err != nil {
		r.srv.Close()
		return nil, err
	}
	if err := r.cli.SetParallelism(2); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *bulkRetr) op(ctx context.Context, i int) error {
	sink := &compareSink{want: r.data}
	var w io.Writer = sink
	if r.t != nil && i >= 0 {
		w = tracedWriter{sink, r.t}
		op := r.t.startOp(i, "client.retr_to", "bulk.bin")
		defer r.t.endOp(op)
	}
	stats, err := r.cli.RetrTo(ctx, "bulk.bin", w)
	if err != nil {
		return err
	}
	if sink.pos != bulkSize || stats.Bytes != bulkSize {
		return fmt.Errorf("retr: sink got %d bytes, client reports %d, object is %d", sink.pos, stats.Bytes, bulkSize)
	}
	r.sinkBytes += int64(sink.pos)
	r.clientBytes += stats.Bytes
	return nil
}

func (r *bulkRetr) begin() { r.timedFrom = r.sinkBytes }

func (r *bulkRetr) verify(ops int) error {
	if r.sinkBytes != r.clientBytes {
		return fmt.Errorf("conservation: sink verified %d bytes, client stats sum to %d", r.sinkBytes, r.clientBytes)
	}
	return r.srv.awaitDelivered("retr", r.sinkBytes)
}

func (r *bulkRetr) payload() int64 { return r.sinkBytes - r.timedFrom }

func (r *bulkRetr) close() {
	r.cli.Close()
	r.srv.Close()
}

// ---- bulk_stor ----

// rotatedReader reads the payload starting rot bytes in and wrapping
// round, so that every op uploads different content from one buffer and
// an upload that stored nothing cannot pass for the one before it.
type rotatedReader struct {
	p        []byte
	rot, pos int
}

func (r *rotatedReader) Read(b []byte) (int, error) {
	if r.pos == len(r.p) {
		return 0, io.EOF
	}
	chunk := r.p[(r.rot+r.pos)%len(r.p):]
	if rem := len(r.p) - r.pos; len(chunk) > rem {
		chunk = chunk[:rem]
	}
	n := copy(b, chunk)
	r.pos += n
	return n, nil
}

// rotation is op i's starting offset; warm-up ops have negative numbers.
func rotation(i int) int {
	rot := ((i + 1) * 1048583) % bulkSize
	if rot < 0 {
		rot += bulkSize
	}
	return rot
}

type bulkStor struct {
	t    *tracer
	srv  *server
	cli  *gridftp.Client
	data []byte
	last int // op number of the most recent upload

	// Byte counts since set-up; timedFrom is sourceBytes at begin.
	sourceBytes, clientBytes, sizedBytes, timedFrom int64
}

func setupBulkStor(seed int64, t *tracer) (runner, error) {
	r := &bulkStor{t: t, data: seededBytes(seed, bulkSize)}
	var err error
	if r.srv, err = startServer(gridftp.NewMemStore(), t); err != nil {
		return nil, err
	}
	if r.cli, err = dialClient(r.srv.Addr(), telemetry.NewHub(), t); err != nil {
		r.srv.Close()
		return nil, err
	}
	if err := r.cli.SetParallelism(2); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *bulkStor) op(ctx context.Context, i int) error {
	src := &rotatedReader{p: r.data, rot: rotation(i)}
	var rd io.Reader = src
	if r.t != nil && i >= 0 {
		rd = tracedReader{src, r.t}
		op := r.t.startOp(i, "client.stor_from", "up.bin")
		defer r.t.endOp(op)
	}
	r.last = i
	stats, err := r.cli.StorFrom(ctx, "up.bin", rd, bulkSize)
	if err != nil {
		return err
	}
	size, err := r.cli.Size("up.bin")
	if err != nil {
		return err
	}
	if src.pos != bulkSize || stats.Bytes != bulkSize || size != bulkSize {
		return fmt.Errorf("stor: source gave %d bytes, client reports %d, SIZE says %d, object is %d", src.pos, stats.Bytes, size, bulkSize)
	}
	r.sourceBytes += int64(src.pos)
	r.clientBytes += stats.Bytes
	r.sizedBytes += size
	return nil
}

func (r *bulkStor) begin() { r.timedFrom = r.sourceBytes }

func (r *bulkStor) verify(ops int) error {
	if r.sourceBytes != r.clientBytes || r.sourceBytes != r.sizedBytes {
		return fmt.Errorf("conservation: source read %d bytes, client stats sum to %d, SIZE replies sum to %d", r.sourceBytes, r.clientBytes, r.sizedBytes)
	}
	if err := r.srv.awaitDelivered("stor", r.sourceBytes); err != nil {
		return err
	}
	got, err := r.srv.store.Get("up.bin")
	if err != nil {
		return err
	}
	rot := rotation(r.last)
	if len(got) != bulkSize || !bytes.Equal(got[:bulkSize-rot], r.data[rot:]) || !bytes.Equal(got[bulkSize-rot:], r.data[:rot]) {
		return errors.New("stor: stored object differs from the last payload uploaded")
	}
	return nil
}

func (r *bulkStor) payload() int64 { return r.sourceBytes - r.timedFrom }

func (r *bulkStor) close() {
	r.cli.Close()
	r.srv.Close()
}

// ---- small_files ----

type smallFiles struct {
	t        *tracer
	src, dst *server
	pool     *connpool.Pool
	mgr      *xferman.Manager
	order    []int // seeded order in which the source objects are cycled

	jobBytes  atomic.Int64 // Σ Result.Bytes since set-up
	timedFrom int64        // jobBytes at begin
}

func smallName(dir string, i int) string { return fmt.Sprintf("%s/%02d.bin", dir, i) }

func setupSmallFiles(seed int64, t *tracer) (runner, error) {
	r := &smallFiles{t: t, order: rand.New(rand.NewSource(seed)).Perm(smallObjs)}
	srcStore := gridftp.NewMemStore()
	all := seededBytes(seed, smallObjs*smallSize)
	for i := 0; i < smallObjs; i++ {
		if err := srcStore.Put(smallName("src", i), all[i*smallSize:(i+1)*smallSize]); err != nil {
			return nil, err
		}
	}
	var err error
	if r.src, err = startServer(srcStore, t); err != nil {
		return nil, err
	}
	if r.dst, err = startServer(gridftp.NewMemStore(), t); err != nil {
		r.src.Close()
		return nil, err
	}
	hub := telemetry.NewHub()
	r.pool = connpool.New(connpool.Config{
		MaxIdlePerEndpoint: 2,
		Telemetry:          hub,
		Opts: func(string) []gridftp.Option {
			opts := []gridftp.Option{gridftp.WithTelemetry(hub)}
			if t != nil {
				opts = append(opts, gridftp.WithDialFunc(t.dialFunc()))
			}
			return opts
		},
	})
	if r.mgr, err = xferman.New(2, xferman.WithTelemetry(hub), xferman.WithPool(r.pool)); err != nil {
		r.pool.Close()
		r.dst.Close()
		r.src.Close()
		return nil, err
	}
	return r, nil
}

func (r *smallFiles) op(ctx context.Context, i int) error {
	// Warm-up ops count down from -1; they cycle the objects like the rest.
	obj := r.order[((i%smallObjs)+smallObjs)%smallObjs]
	job := xferman.Job{
		Src:     xferman.Endpoint{Addr: r.src.Addr(), User: "anonymous", Pass: "bench@"},
		Dst:     xferman.Endpoint{Addr: r.dst.Addr(), User: "anonymous", Pass: "bench@"},
		SrcName: smallName("src", obj),
		DstName: smallName("dst", obj),
	}
	var op *opRef
	var s int64
	if r.t != nil && i >= 0 {
		op = r.t.startOp(i, "xferman.job", job.SrcName, job.DstName)
		defer r.t.endOp(op)
		s = r.t.now()
	}
	id, err := r.mgr.Submit(ctx, job)
	if err != nil {
		return err
	}
	if op != nil {
		r.t.child(op, "xferman.submit", s)
		s = r.t.now()
	}
	res, err := r.mgr.Wait(ctx, id)
	if op != nil {
		r.t.child(op, "xferman.wait", s)
	}
	if err != nil {
		return err
	}
	if res.Status != xferman.Succeeded || res.Attempts != 1 || res.Bytes != smallSize {
		return fmt.Errorf("job %d: status %v after %d attempts, %d bytes: %s", id, res.Status, res.Attempts, res.Bytes, res.Err)
	}
	r.jobBytes.Add(res.Bytes)
	return nil
}

func (r *smallFiles) begin() { r.timedFrom = r.jobBytes.Load() }

func (r *smallFiles) verify(ops int) error {
	if got, want := r.payload(), int64(ops)*smallSize; got != want {
		return fmt.Errorf("conservation: job results sum to %d bytes, %d ops x %d is %d", got, ops, smallSize, want)
	}
	if err := r.src.awaitDelivered("retr", r.jobBytes.Load()); err != nil {
		return err
	}
	if err := r.dst.awaitDelivered("stor", r.jobBytes.Load()); err != nil {
		return err
	}
	for i := 0; i < smallObjs; i++ {
		want, err := r.src.store.Get(smallName("src", i))
		if err != nil {
			return err
		}
		got, err := r.dst.store.Get(smallName("dst", i))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("small_files: %s differs from its source", smallName("dst", i))
		}
	}
	return nil
}

func (r *smallFiles) payload() int64 { return r.jobBytes.Load() - r.timedFrom }

func (r *smallFiles) close() {
	r.mgr.Close()
	r.pool.Close()
	r.dst.Close()
	r.src.Close()
}

// ---- exhibits ----

// exhibits regenerates all 21 exhibits cold: op i uses seed+i, which no
// memo cache of the experiments package has seen.
type exhibits struct {
	seed    int64
	ids     []string
	digests []string
}

func setupExhibits(seed int64, _ *tracer) (runner, error) {
	return &exhibits{seed: seed, ids: experiments.IDs()}, nil
}

func (r *exhibits) op(_ context.Context, i int) error {
	results, err := experiments.RunAll(r.ids, r.seed+int64(i), 2)
	if err != nil {
		return err
	}
	if len(results) != len(r.ids) {
		return fmt.Errorf("exhibits: %d results for %d ids", len(results), len(r.ids))
	}
	h := sha256.New()
	for k, res := range results {
		text := res.Render()
		if text == "" {
			return fmt.Errorf("exhibits: %s rendered nothing", r.ids[k])
		}
		io.WriteString(h, text)
	}
	r.digests = append(r.digests, fmt.Sprintf("seed %d: %s", r.seed+int64(i), hex.EncodeToString(h.Sum(nil))))
	return nil
}

func (r *exhibits) begin()           {}
func (r *exhibits) verify(int) error { return nil }
func (r *exhibits) payload() int64   { return 0 }
func (r *exhibits) close()           {}
