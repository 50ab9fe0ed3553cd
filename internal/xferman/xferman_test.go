package xferman

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"regexp"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc/broker"
)

// flakyStore fails the first N snapshot opens — the server's one RETR
// source — then delegates, simulating the transient server-side
// failures a transfer manager retries through.
type flakyStore struct {
	*gridftp.MemStore
	mu       sync.Mutex
	failures int
}

func (f *flakyStore) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	f.mu.Lock()
	if f.failures > 0 {
		f.failures--
		f.mu.Unlock()
		return nil, 0, gridftp.ErrNotFound
	}
	f.mu.Unlock()
	return f.MemStore.SnapshotObject(name)
}

func ep(s *gridftp.Server) Endpoint {
	return Endpoint{Addr: s.Addr(), User: "u", Pass: "p"}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero workers should fail")
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	bad := []Job{
		{},
		{Src: Endpoint{Addr: "x"}, Dst: Endpoint{Addr: "y"}},
		{Src: Endpoint{Addr: "x"}, Dst: Endpoint{Addr: "y"},
			SrcName: "a", DstName: "b", MaxAttempts: -1},
	}
	for i, j := range bad {
		if _, err := m.Submit(context.Background(), j); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if _, err := m.Wait(context.Background(), 999); err == nil {
		t.Error("unknown job should fail")
	}
}

func TestSuccessfulVerifiedTransfer(t *testing.T) {
	r := rig.New(t)
	want := rig.Payload(3, 1<<20)
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{Store: dstStore})

	m, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin", Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("status = %v, err = %s", res.Status, res.Err)
	}
	if res.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", res.Attempts)
	}
	if res.Checksum == "" {
		t.Error("verified job should carry a checksum")
	}
	got, err := dstStore.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted")
	}
}

// TestUnannouncedSizeFallsBackToProbe: a source whose RETR 150 carries
// no "(N bytes)", as some servers send, still gives Result.Bytes the
// object size, through one SIZE probe after the copy.
func TestUnannouncedSizeFallsBackToProbe(t *testing.T) {
	const size = 100<<10 + 3
	r := rig.New(t)
	hubSrv, _ := r.Hub("gftpd")
	src := r.Server(gridftp.Config{Telemetry: hubSrv, ControlListen: sizelessOpening},
		rig.Objects{"data.bin": rig.Payload(4, size)})
	dst := r.Server(gridftp.Config{})
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	res := runJob(t, m, Job{Src: ep(src), Dst: ep(dst), SrcName: "data.bin", DstName: "copy.bin", Verify: true})
	if res.Bytes != size {
		t.Errorf("Bytes = %d, want %d", res.Bytes, size)
	}
	if n := hubSrv.Counter("gridftp_server_commands_total", "", telemetry.L("verb", "size")).Value(); n != 1 {
		t.Errorf("source saw %d SIZE commands, want 1", n)
	}
}

// sizelessOpening is a Config.ControlListen whose connections strip the
// "(N bytes)" from every reply the server writes.
func sizelessOpening(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	return sizelessListener{ln}, err
}

type sizelessListener struct{ net.Listener }

func (l sizelessListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return sizelessConn{c}, nil
}

type sizelessConn struct{ net.Conn }

var announcedSize = regexp.MustCompile(` \(\d+ bytes\)`)

func (c sizelessConn) Write(p []byte) (int, error) {
	if _, err := c.Conn.Write(announcedSize.ReplaceAll(p, nil)); err != nil {
		return 0, err
	}
	return len(p), nil
}

func TestRetryRecoversFromTransientFailure(t *testing.T) {
	r := rig.New(t)
	flaky := &flakyStore{MemStore: gridftp.NewMemStore(), failures: 2}
	src := r.Server(gridftp.Config{Store: flaky}, rig.Objects{"data.bin": rig.Payload(3, 256<<10)})
	dst := r.Server(gridftp.Config{})

	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		MaxAttempts: 4, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded {
		t.Fatalf("status = %v, err = %s", res.Status, res.Err)
	}
	if res.Attempts != 3 {
		t.Errorf("attempts = %d, want 3 (two failures, then success)", res.Attempts)
	}
}

func TestExhaustedRetriesFail(t *testing.T) {
	r := rig.New(t)
	src := r.Server(gridftp.Config{}) // object never exists
	dst := r.Server(gridftp.Config{})
	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "missing.bin", DstName: "copy.bin", MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Failed || res.Err == "" {
		t.Fatalf("result = %+v, want failure with error", res)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2", res.Attempts)
	}
}

func TestBatchOfJobsAcrossWorkers(t *testing.T) {
	r := rig.New(t)
	srcStore := gridftp.NewMemStore()
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range names {
		srcStore.Put(n, rig.Payload(3, 64<<10))
	}
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{Store: srcStore})
	dst := r.Server(gridftp.Config{Store: dstStore})
	m, _ := New(3)
	defer m.Close()
	var ids []JobID
	for _, n := range names {
		id, err := m.Submit(context.Background(), Job{
			Src: ep(src), Dst: ep(dst),
			SrcName: n, DstName: n + ".copy", Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		res, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Succeeded {
			t.Fatalf("job %d: %v (%s)", id, res.Status, res.Err)
		}
	}
	for _, n := range names {
		if _, err := dstStore.Get(n + ".copy"); err != nil {
			t.Errorf("missing copy of %s", n)
		}
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	m, _ := New(1)
	m.Close()
	m.Close() // idempotent
	if _, err := m.Submit(context.Background(), Job{
		Src: Endpoint{Addr: "x"}, Dst: Endpoint{Addr: "y"},
		SrcName: "a", DstName: "b",
	}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

// TestSubmitCloseRace hammers Submit against a concurrent Close: every
// Submit must either enqueue or report ErrClosed — never panic on a
// closed queue channel. Run under -race via RACE_PKGS.
func TestSubmitCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		m, _ := New(1)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 10; j++ {
					_, err := m.Submit(context.Background(), Job{
						Src: Endpoint{Addr: "127.0.0.1:1"}, Dst: Endpoint{Addr: "127.0.0.1:1"},
						SrcName: "x", DstName: "x", MaxAttempts: 1,
						Timeout: 50 * time.Millisecond,
					})
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}()
		}
		m.Close()
		wg.Wait()
	}
}

func TestResultNonBlocking(t *testing.T) {
	m, _ := New(1)
	defer m.Close()
	if _, err := m.Result(42); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: %v, want ErrUnknownJob", err)
	}
	if _, err := m.Wait(context.Background(), 42); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("wait unknown job: %v, want ErrUnknownJob", err)
	}
}

// TestContextCancellation: a cancelled job context stops retries and
// bounds Wait itself.
func TestContextCancellation(t *testing.T) {
	r := rig.New(t)
	src := r.Server(gridftp.Config{}) // object never exists: retries forever
	dst := r.Server(gridftp.Config{})
	m, _ := New(1)
	defer m.Close()

	ctx, cancel := context.WithCancel(context.Background())
	id, err := m.Submit(ctx, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "missing.bin", DstName: "copy.bin", MaxAttempts: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait under its own short deadline while the job is still retrying.
	wctx, wcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer wcancel()
	if _, err := m.Wait(wctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded wait: %v, want DeadlineExceeded", err)
	}
	// Cancel the job: the retry loop must stop well before 1000 attempts.
	cancel()
	res, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Failed || res.Attempts >= 1000 {
		t.Fatalf("cancelled job: status=%v attempts=%d", res.Status, res.Attempts)
	}
}

// TestResultCircuitWithoutBroker: a manager with no broker reports
// plain best-effort IP dispatch on every result.
func TestResultCircuitWithoutBroker(t *testing.T) {
	r := rig.New(t)
	src := r.Server(gridftp.Config{}, rig.Objects{"data.bin": rig.Payload(3, 32<<10)})
	dst := r.Server(gridftp.Config{})
	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin", SizeHint: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(context.Background(), id)
	if err != nil || res.Status != Succeeded {
		t.Fatalf("%+v, %v", res, err)
	}
	if res.Circuit.Service != broker.ServiceIP || res.Circuit.Fallback != "" {
		t.Errorf("brokerless circuit disposition = %+v, want plain IP", res.Circuit)
	}
	if res.Bytes != 32<<10 {
		t.Errorf("bytes = %d, want %d", res.Bytes, 32<<10)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Queued: "QUEUED", Running: "RUNNING", Succeeded: "SUCCEEDED", Failed: "FAILED",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %s", s, s.String())
		}
	}
}

func TestChecksumCommandDirect(t *testing.T) {
	r := rig.New(t)
	s := r.Server(gridftp.Config{}, rig.Objects{"x": []byte("hello world")})
	c := r.Login(s.Addr())
	sum, err := c.Checksum("x")
	if err != nil {
		t.Fatal(err)
	}
	// crc32.ChecksumIEEE("hello world") = 0x0d4a1185
	if sum != "0d4a1185" {
		t.Errorf("checksum = %s, want 0d4a1185", sum)
	}
	if _, err := c.Checksum("missing"); err == nil {
		t.Error("missing object checksum should fail")
	}
}

func TestSubmitAll(t *testing.T) {
	r := rig.New(t)
	srcStore := gridftp.NewMemStore()
	for _, n := range []string{"run1/a", "run1/b", "other/c"} {
		srcStore.Put(n, rig.Payload(3, 32<<10))
	}
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{Store: srcStore})
	dst := r.Server(gridftp.Config{Store: dstStore})
	m, _ := New(2)
	defer m.Close()
	ids, err := m.SubmitAll(context.Background(), ep(src), ep(dst), "run1/", Job{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("submitted %d jobs, want 2", len(ids))
	}
	for _, id := range ids {
		res, err := m.Wait(context.Background(), id)
		if err != nil || res.Status != Succeeded {
			t.Fatalf("job %d: %+v, %v", id, res, err)
		}
	}
	if _, err := dstStore.Get("run1/a"); err != nil {
		t.Error("run1/a not copied")
	}
	if _, err := dstStore.Get("other/c"); err == nil {
		t.Error("other/c should not have been copied")
	}
	if _, err := m.SubmitAll(context.Background(), ep(src), ep(dst), "missing/", Job{}); err == nil {
		t.Error("empty prefix listing should fail")
	}
}

// TestJobTimeoutBoundsSilentEndpoint: a job whose source greets and then
// never replies must burn through its attempts within the configured
// per-operation deadline, not hang a worker forever.
func TestJobTimeoutBoundsSilentEndpoint(t *testing.T) {
	r := rig.New(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				fmt.Fprintf(conn, "220 silent\r\n")
				io.Copy(io.Discard, conn)
				conn.Close()
			}(conn)
		}
	}()
	dst := r.Server(gridftp.Config{})
	m, _ := New(1)
	defer m.Close()
	const d = 300 * time.Millisecond
	id, err := m.Submit(context.Background(), Job{
		Src:     Endpoint{Addr: ln.Addr().String()},
		Dst:     Endpoint{Addr: dst.Addr()},
		SrcName: "x", DstName: "x",
		MaxAttempts: 2,
		Timeout:     d,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := m.Wait(context.Background(), id)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Failed {
		t.Fatalf("status = %v, want Failed", res.Status)
	}
	// Two attempts, each bounded by roughly one control deadline (the
	// greeting arrives; the USER reply never does), plus slack.
	if limit := 2*2*d + 500*time.Millisecond; elapsed > limit {
		t.Fatalf("job took %v, want < %v", elapsed, limit)
	}
	if _, err := m.Submit(context.Background(), Job{Src: Endpoint{Addr: "a"}, Dst: Endpoint{Addr: "b"},
		SrcName: "x", DstName: "x", Timeout: -time.Second}); err == nil {
		t.Error("negative Timeout accepted")
	}
}

// TestSubmitCancelOnFullQueue is the Submit-ignores-ctx regression: with
// the only worker parked on an endpoint that never greets and the queue
// full, a Submit whose context is done must return ctx.Err() instead of
// blocking on the queue send, leave no trace of the never-queued job,
// and keep the in-flight-submit accounting exact so Close still
// returns.
func TestSubmitCancelOnFullQueue(t *testing.T) {
	r := rig.New(t)
	srv := r.Server(gridftp.Config{})
	mute, err := faultnet.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	mute.Stall() // connects, then swallows the greeting
	hub, _ := r.Hub("xferman")
	m, _ := New(1, WithTelemetry(hub))
	jobCtx, cancelJobs := context.WithCancel(context.Background())
	// Unpark the worker and fail the backlog fast, whatever happens.
	release := func() { cancelJobs(); mute.Close() }
	defer release()
	job := Job{
		Src: Endpoint{Addr: mute.Addr()}, Dst: ep(srv),
		SrcName: "x", DstName: "x", MaxAttempts: 1,
	}
	first, err := m.Submit(jobCtx, job)
	if err != nil {
		t.Fatal(err)
	}
	r.WaitFor("the worker to pick up the first job", func() bool {
		res, _ := m.Result(first)
		return res.Status == Running
	})
	for i := 0; i < cap(m.queue); i++ {
		if _, err := m.Submit(jobCtx, job); err != nil {
			t.Fatal(err)
		}
	}
	depth := hub.Gauge("xferman_queue_depth", "Jobs queued and not yet picked up by a worker.")
	before := depth.Value()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	submitted := make(chan error, 1)
	go func() {
		_, err := m.Submit(ctx, job)
		submitted <- err
	}()
	select {
	case err := <-submitted:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Submit on a full queue with a cancelled ctx: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit ignored its cancelled ctx and blocked on the full queue")
	}
	if got := depth.Value(); got != before {
		t.Errorf("queue depth = %v after the cancelled Submit, want %v", got, before)
	}
	m.mu.Lock()
	registered := len(m.jobs)
	m.mu.Unlock()
	if want := cap(m.queue) + 1; registered != want {
		t.Errorf("%d jobs registered, want %d: the never-queued job was not unregistered", registered, want)
	}

	release()
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a cancelled Submit")
	}
}

// TestManagerDialsReachTelemetry: every control channel the manager
// dials itself — not only an attempt's two, but SubmitAll's listing
// channel and the post-failure watermark probe — carries the hub, so
// each shows up in the client dial counter.
func TestManagerDialsReachTelemetry(t *testing.T) {
	r := rig.New(t)
	const size = 1 << 20
	src := r.Server(gridftp.Config{BlockSize: 16 << 10}, rig.Objects{"data.bin": rig.Payload(3, size)})
	dst := r.Server(gridftp.Config{
		WindowSize: 64 << 10, BlockSize: 16 << 10,
		DataTimeout: 500 * time.Millisecond, DataListen: faultnet.ResetFirstConn(size * 6 / 10).Listen,
	})
	hub, _ := r.Hub("xferman")
	m, _ := New(1, WithTelemetry(hub))
	defer m.Close()
	dials := hub.Counter("gridftp_client_dials_total",
		"Control-channel dials, by result.", telemetry.L("result", "ok"))

	// A listing that finds nothing submits nothing: the one dial is the
	// listing's own.
	if _, err := m.SubmitAll(context.Background(), ep(src), ep(dst), "missing/", Job{}); err == nil {
		t.Fatal("empty listing should fail")
	}
	if got := dials.Value(); got != 1 {
		t.Errorf("dials after SubmitAll's listing = %v, want 1", got)
	}

	// A mid-transfer reset, then a resumed retry: two attempts of two
	// channels each, plus the watermark probe between them.
	res := runJob(t, m, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		MaxAttempts: 3, RetryBackoff: 20 * time.Millisecond,
	})
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (reset, then resumed retry)", res.Attempts)
	}
	if got := dials.Value(); got != 1+2+1+2 {
		t.Errorf("dials after the retried job = %v, want 6 (listing, attempt, probe, attempt)", got)
	}
}
