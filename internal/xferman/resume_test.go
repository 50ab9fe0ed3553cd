package xferman

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
)

// TestBackoffDelayBounds pins the jittered exponential schedule: every
// delay sits in [base/2, cap], later attempts never shrink the
// pre-jitter target, and the cap actually caps.
func TestBackoffDelayBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	const cap = time.Second
	for attempt := 1; attempt <= 12; attempt++ {
		for i := 0; i < 50; i++ {
			d := backoffDelay(base, cap, attempt)
			if d < base/2 || d > cap {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, base/2, cap)
			}
		}
	}
	// Deep attempts saturate: with jitter >= 50% of the capped target,
	// attempt 10 can never be faster than cap/2.
	for i := 0; i < 50; i++ {
		if d := backoffDelay(base, cap, 10); d < cap/2 {
			t.Fatalf("saturated attempt delay %v < %v", d, cap/2)
		}
	}
}

// TestRetriesBackOffAgainstDyingServer is the backoff-bugfix
// regression: a job whose endpoint fails every attempt must spread its
// retries over the jittered schedule instead of hammering the server
// in a hot loop, and a cancelled context must cut a pending backoff
// short instead of holding the worker for the full delay.
func TestRetriesBackOffAgainstDyingServer(t *testing.T) {
	r := rig.New(t)
	src := r.Server(gridftp.Config{}) // object never exists
	dst := r.Server(gridftp.Config{})
	hub, _ := r.Hub("xferman")
	m, _ := New(1, WithTelemetry(hub))
	defer m.Close()
	retries := hub.Counter("xferman_retries_total",
		"Failed attempts that were retried with fresh control channels.")

	const base = 60 * time.Millisecond
	start := time.Now()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "missing.bin", DstName: "copy.bin",
		MaxAttempts:  3,
		RetryBackoff: base, RetryBackoffMax: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	elapsed := time.Since(start)
	if res.Status != Failed || res.Attempts != 3 {
		t.Fatalf("status=%v attempts=%d, want Failed after 3", res.Status, res.Attempts)
	}
	// Two backoffs fired: at least base/2 (attempt 1→2, minimum jitter)
	// plus base (attempt 2→3, minimum jitter on the doubled target).
	if min := base/2 + base; elapsed < min {
		t.Fatalf("3 attempts in %v: backoff never waited (want >= %v)", elapsed, min)
	}

	// Cancellation mid-backoff: a huge backoff must not pin the worker.
	ctx, cancel := context.WithCancel(context.Background())
	id2, err := m.Submit(ctx, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "missing.bin", DstName: "copy.bin",
		MaxAttempts:  5,
		RetryBackoff: 30 * time.Second, RetryBackoffMax: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attempt 1 has failed and its backoff is about to start once the
	// retry is counted (the first job contributed two).
	r.WaitFor("attempt 1 to fail", func() bool { return retries.Value() == 3 })
	cancel()
	start = time.Now()
	res2, err := m.Wait(context.Background(), id2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != Failed {
		t.Fatalf("cancelled job status = %v", res2.Status)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancel took %v to break the backoff", waited)
	}
}

// dstStoreFactories is the destination-store axis of the resume A/B
// drill: the watermark contract must hold whether the delivered prefix
// lives in RAM (MemStore truncation) or on disk (DirStore's partial
// sidecar, whose file size IS the watermark).
func dstStoreFactories() []struct {
	name string
	make func(t *testing.T) gridftp.Store
} {
	return []struct {
		name string
		make func(t *testing.T) gridftp.Store
	}{
		{"mem", func(t *testing.T) gridftp.Store { return gridftp.NewMemStore() }},
		{"dir", func(t *testing.T) gridftp.Store {
			d, err := gridftp.NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	}
}

// TestRetryResumesFromWatermark is the manager half of the tentpole:
// the first third-party attempt dies from a mid-transfer connection
// reset, the retry probes the destination's delivered watermark and
// RESTs there, and the accounting shows no re-sent payload — WireBytes
// equals the object size, where a restart-from-zero retry re-moves the
// whole prefix. Runs against both RAM and disk destinations.
func TestRetryResumesFromWatermark(t *testing.T) {
	for _, sf := range dstStoreFactories() {
		sf := sf
		t.Run(sf.name, func(t *testing.T) { testRetryResumesFromWatermark(t, sf.make(t)) })
	}
}

func testRetryResumesFromWatermark(t *testing.T, dstStore gridftp.Store) {
	r := rig.New(t)
	const (
		size   = 1 << 20
		window = 64 << 10
		block  = 16 << 10
	)
	want := rig.Payload(3, size)
	tracker := faultnet.ResetFirstConn(size * 6 / 10)
	src := r.Server(gridftp.Config{BlockSize: block}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{
		Store: dstStore, WindowSize: window, BlockSize: block,
		DataTimeout: 500 * time.Millisecond, DataListen: tracker.Listen,
	})

	hub, _ := r.Hub("xferman")
	m, _ := New(1, WithTelemetry(hub))
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		MaxAttempts: 3, Verify: true,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded {
		t.Fatalf("status=%v err=%s", res.Status, res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (reset, then resumed retry)", res.Attempts)
	}
	if tracker.Total() < 2 {
		t.Fatalf("only %d data listeners: the fault never fired", tracker.Total())
	}
	got, err := dstStore.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed object differs from source")
	}
	if res.Bytes != size {
		t.Fatalf("Bytes=%d, want %d", res.Bytes, size)
	}
	// The resumed retry re-sent nothing the watermark already covered:
	// wire equals delivered exactly at the manager's watermark-derived
	// granularity.
	if res.WireBytes != size {
		t.Fatalf("WireBytes=%d, want %d (resume must not re-send the prefix)", res.WireBytes, size)
	}
	if v := hub.Counter("xferman_resumed_attempts_total",
		"Retry attempts that restarted from a destination watermark instead of byte zero.").Value(); v != 1 {
		t.Fatalf("resumed_attempts=%v, want 1", v)
	}
	if v := hub.Counter("xferman_delivered_bytes_total",
		"Payload bytes durably delivered to destinations exactly once.").Value(); v != size {
		t.Fatalf("delivered_bytes=%v, want %d", v, size)
	}
}

// TestNoResumeRetryReSendsPrefix is the A/B counterpart: the identical
// fault with NoResume set restarts at byte zero, and WireBytes exposes
// the redundant prefix that Result.Bytes alone hides. Runs against both
// RAM and disk destinations.
func TestNoResumeRetryReSendsPrefix(t *testing.T) {
	for _, sf := range dstStoreFactories() {
		sf := sf
		t.Run(sf.name, func(t *testing.T) { testNoResumeRetryReSendsPrefix(t, sf.make(t)) })
	}
}

func testNoResumeRetryReSendsPrefix(t *testing.T, dstStore gridftp.Store) {
	r := rig.New(t)
	const (
		size   = 1 << 20
		window = 64 << 10
		block  = 16 << 10
	)
	want := rig.Payload(3, size)
	src := r.Server(gridftp.Config{BlockSize: block}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{
		Store: dstStore, WindowSize: window, BlockSize: block,
		DataTimeout: 500 * time.Millisecond, DataListen: faultnet.ResetFirstConn(size * 6 / 10).Listen,
	})

	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		MaxAttempts: 3, Verify: true, NoResume: true,
		SizeHint:     size,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded || res.Attempts != 2 {
		t.Fatalf("status=%v attempts=%d err=%s", res.Status, res.Attempts, res.Err)
	}
	got, err := dstStore.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restarted object differs from source")
	}
	// The failed attempt durably delivered a prefix, then the restart
	// re-sent everything: wire strictly exceeds the object size by that
	// prefix.
	if res.WireBytes <= size {
		t.Fatalf("WireBytes=%d, want > %d: restart-from-zero must show redundant traffic", res.WireBytes, size)
	}
}

// TestStreamJobRelaysThroughManager: a Stream job moves the object
// through the manager's own windowed data plane, byte-identical, with
// exact wire accounting.
func TestStreamJobRelaysThroughManager(t *testing.T) {
	r := rig.New(t)
	const size = 1 << 20
	want := rig.Payload(3, size)
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{BlockSize: 16 << 10}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{Store: dstStore, WindowSize: 256 << 10})

	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		Stream: true, WindowBytes: 128 << 10, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded {
		t.Fatalf("status=%v err=%s", res.Status, res.Err)
	}
	got, err := dstStore.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("relayed object differs from source")
	}
	if res.Bytes != size || res.WireBytes != size {
		t.Fatalf("Bytes=%d WireBytes=%d, want %d/%d", res.Bytes, res.WireBytes, size, size)
	}
}

// TestStreamJobResumesAfterReset: the streaming relay hits the same
// mid-transfer reset and resumes from the destination watermark; the
// exact wire measurement shows the redundancy stayed under the
// reassembly window (plus in-flight buffering) instead of the whole
// delivered prefix.
func TestStreamJobResumesAfterReset(t *testing.T) {
	r := rig.New(t)
	const (
		size   = 1 << 20
		window = 64 << 10
	)
	want := rig.Payload(3, size)
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{BlockSize: 16 << 10}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{
		Store: dstStore, WindowSize: window,
		DataTimeout: 500 * time.Millisecond, DataListen: faultnet.ResetFirstConn(size * 6 / 10).Listen,
	})

	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		Stream: true, WindowBytes: window, Verify: true,
		MaxAttempts:  3,
		RetryBackoff: 20 * time.Millisecond,
		Timeout:      time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded {
		t.Fatalf("status=%v err=%s", res.Status, res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2", res.Attempts)
	}
	got, err := dstStore.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed relay differs from source")
	}
	// Exact streaming measurement: some redundancy (bytes in flight
	// when the connection died) but far less than the delivered prefix
	// a restart would re-send. The slack term covers the destination
	// window plus client- and kernel-side buffering on the dead conn.
	if res.WireBytes <= size {
		t.Fatalf("WireBytes=%d, want > %d: in-flight bytes at the reset are re-sent", res.WireBytes, size)
	}
	if slack := int64(window + 512<<10); res.WireBytes > size+slack {
		t.Fatalf("WireBytes=%d re-sent more than window+slack (%d): resume did not take", res.WireBytes, size+slack)
	}
}

// flakyBeginPutStore fails the first BeginPut calls, so the server
// rejects the STOR command before touching the object — the shape of a
// destination-side failure that never engages the transfer.
type flakyBeginPutStore struct {
	*gridftp.MemStore
	mu    sync.Mutex
	fails int
}

func (s *flakyBeginPutStore) BeginPut(name string, base int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fails > 0 {
		s.fails--
		return errors.New("injected BeginPut failure")
	}
	return s.MemStore.BeginPut(name, base)
}

// TestStaleDestinationNotTrustedAsWatermark is the stale-watermark
// regression: the destination already holds an unrelated object under
// DstName, and the first attempt dies before the destination accepts
// STOR — so that object is untouched. The retry must NOT read its SIZE
// as a delivered watermark and REST there: with Verify off (the
// default), doing so would silently splice the stale prefix under the
// new object's suffix.
func TestStaleDestinationNotTrustedAsWatermark(t *testing.T) {
	r := rig.New(t)
	const (
		size      = 1 << 20
		staleSize = 512 << 10
	)
	want := rig.Payload(3, size)
	dstStore := &flakyBeginPutStore{MemStore: gridftp.NewMemStore(), fails: 1}
	dstStore.Put("copy.bin", bytes.Repeat([]byte{0xAA}, staleSize))
	src := r.Server(gridftp.Config{BlockSize: 16 << 10}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{Store: dstStore, WindowSize: 64 << 10, BlockSize: 16 << 10})

	m, _ := New(1)
	defer m.Close()
	// Verify deliberately off: the corruption this test pins slips
	// through exactly when nothing checksums the result.
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		MaxAttempts:  3,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded {
		t.Fatalf("status=%v err=%s", res.Status, res.Err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2 (rejected STOR, then restart from zero)", res.Attempts)
	}
	got, err := dstStore.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("destination object differs from source (len=%d, want %d): stale SIZE was resumed as a watermark", len(got), size)
	}
	if res.WireBytes != size {
		t.Fatalf("WireBytes=%d, want %d (nothing moved before the rejection)", res.WireBytes, size)
	}
}

// noRestartStore is a MemStore that refuses to resume a put: BeginPut
// at a nonzero base fails, so the server answers a resumed STOR with
// 554 after accepting its REST with 350.
type noRestartStore struct {
	*gridftp.MemStore
}

func (s noRestartStore) BeginPut(name string, base int64) error {
	if base > 0 {
		return errors.New("restart not supported")
	}
	return s.MemStore.BeginPut(name, base)
}

// TestRestRejectionDemotesToRestart is the REST-demotion regression
// against a destination that accepts REST with 350 and only rejects
// the resumed STOR (554): a job whose first attempt was reset mid-way
// probes the delivered watermark, gets the 554 on its resumed second
// attempt, and must demote to restart-from-zero instead of re-sending
// the doomed REST+STOR until MaxAttempts.
func TestRestRejectionDemotesToRestart(t *testing.T) {
	r := rig.New(t)
	const (
		size      = 1 << 20
		staleSize = 256 << 10
	)
	want := rig.Payload(3, size)
	dstMem := gridftp.NewMemStore()
	dstMem.Put("copy.bin", bytes.Repeat([]byte{0xEE}, staleSize))
	src := r.Server(gridftp.Config{BlockSize: 16 << 10}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{
		Store:       noRestartStore{dstMem},
		DataTimeout: 500 * time.Millisecond, DataListen: faultnet.ResetFirstConn(size * 6 / 10).Listen,
	})

	m, _ := New(1)
	defer m.Close()
	id, err := m.Submit(context.Background(), Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		MaxAttempts:  4,
		RetryBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Wait(context.Background(), id)
	if res.Status != Succeeded {
		t.Fatalf("status=%v attempts=%d err=%s", res.Status, res.Attempts, res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("attempts=%d, want 3 (reset, 554 on resumed STOR, restart from zero)", res.Attempts)
	}
	got, err := dstMem.Get("copy.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restarted object differs from source")
	}
}

// TestResumeAfter is the oracle for the retry rule, with no server:
// each case is one attempt's report and the plan it must produce.
func TestResumeAfter(t *testing.T) {
	const size = 1000
	boom := errors.New("connection reset")
	rejected := fmt.Errorf("transfer: %w", &gridftp.ProtocolError{Verb: "STOR", Reply: gridftp.Reply{Code: 554}})
	type plan struct {
		next      int64
		resume    bool
		wire      int64
		delivered int64
	}
	for _, tc := range []struct {
		name       string
		restart    int64
		canResume  bool
		err        error
		dstEngaged bool
		watermark  int64 // what a probe would answer
		final      bool  // no retry follows: no probe offered
		size       int64
		moved      int64
		want       plan
		probed     bool
	}{
		{name: "clean third-party attempt from zero",
			canResume: true, size: size, moved: size,
			want: plan{0, true, size, size}},
		{name: "clean resumed attempt credits only its suffix",
			restart: 600, canResume: true, size: size, moved: 400,
			want: plan{600, true, 400, size}},
		{name: "clean attempt with unknown size credits nothing",
			canResume: true,
			want:      plan{0, true, 0, 0}},
		{name: "REST rejected after a nonzero offset demotes to restart for good",
			restart: 600, canResume: true, err: rejected, dstEngaged: true, watermark: 700, size: size,
			want: plan{0, false, 0, 0}},
		{name: "a 554 on a from-zero attempt is not a restart rejection",
			canResume: true, err: rejected, size: size,
			want: plan{0, true, 0, 0}},
		{name: "dst not engaged: stale watermark ignored, zero credit",
			canResume: true, err: boom, watermark: 512, size: size,
			want: plan{0, true, 0, 0}},
		{name: "dst not engaged on a resumed attempt keeps the offset",
			restart: 600, canResume: true, err: boom, watermark: 900, size: size,
			want: plan{600, true, 0, 600}},
		{name: "third-party failure: credit and resume point from the watermark delta",
			restart: 100, canResume: true, err: boom, dstEngaged: true, watermark: 600, size: size,
			want: plan{600, true, 500, 600}, probed: true},
		{name: "streaming failure: the exact count wins over the watermark delta",
			restart: 100, canResume: true, err: boom, dstEngaged: true, watermark: 600, size: size, moved: 650,
			want: plan{600, true, 650, 600}, probed: true},
		{name: "watermark at the known size is ignored",
			restart: 100, canResume: true, err: boom, dstEngaged: true, watermark: size, size: size,
			want: plan{100, true, 0, 100}, probed: true},
		{name: "watermark past the known size is ignored",
			canResume: true, err: boom, dstEngaged: true, watermark: size + 1, size: size,
			want: plan{0, true, 0, 0}, probed: true},
		{name: "watermark not past the restart offset is ignored",
			restart: 600, canResume: true, err: boom, dstEngaged: true, watermark: 600, size: size,
			want: plan{600, true, 0, 600}, probed: true},
		{name: "unknown size trusts any advancing watermark",
			canResume: true, err: boom, dstEngaged: true, watermark: 300,
			want: plan{300, true, 300, 300}, probed: true},
		{name: "NoResume credits wire bytes but does not advance",
			err: boom, dstEngaged: true, watermark: 600, size: size,
			want: plan{0, false, 600, 0}, probed: true},
		{name: "final failure: no probe, only the attempt's own count",
			restart: 100, canResume: true, err: boom, dstEngaged: true, watermark: 600, final: true, size: size, moved: 650,
			want: plan{100, true, 650, 100}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probed := false
			probe := func() int64 { probed = true; return tc.watermark }
			if tc.final {
				probe = nil
			}
			var got plan
			got.next, got.resume, got.wire, got.delivered = resumeAfter(
				tc.restart, tc.canResume, tc.err, tc.dstEngaged, probe, tc.size, tc.moved)
			if got != tc.want {
				t.Errorf("got %+v, want %+v", got, tc.want)
			}
			if probed != tc.probed {
				t.Errorf("watermark probed = %v, want %v", probed, tc.probed)
			}
		})
	}
}
