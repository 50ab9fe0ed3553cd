package xferman

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/faultnet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
)

// TestPooledManagerReusesChannels runs a batch of jobs through a
// manager wired to a connection pool: after warmup every attempt's two
// control channels come from the pool, and when the batch drains no
// channel is leaked in the leased state.
func TestPooledManagerReusesChannels(t *testing.T) {
	r := rig.New(t)
	srcStore := gridftp.NewMemStore()
	want := rig.Payload(3, 256<<10)
	for i := 0; i < 6; i++ {
		srcStore.Put(fmt.Sprintf("obj%d", i), want)
	}
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{Store: srcStore})
	dst := r.Server(gridftp.Config{Store: dstStore})

	pool := connpool.New(connpool.Config{MaxIdlePerEndpoint: 2})
	defer pool.Close()
	m, err := New(1, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	var ids []JobID
	for i := 0; i < 6; i++ {
		id, err := m.Submit(ctx, Job{
			Src: ep(src), Dst: ep(dst),
			SrcName: fmt.Sprintf("obj%d", i), DstName: fmt.Sprintf("copy%d", i),
			Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		res, err := m.Wait(ctx, id)
		if err != nil || res.Status != Succeeded {
			t.Fatalf("job %d: %+v, %v", id, res, err)
		}
	}
	got, _ := dstStore.Get("copy5")
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted through pooled channels")
	}
	st := pool.Stats()
	// 6 jobs x 2 endpoints with 1 worker: the first job dials two
	// channels, the rest reuse them.
	if st.Misses != 2 {
		t.Errorf("misses = %d, want 2 (one dial per endpoint)", st.Misses)
	}
	if st.Hits != 10 {
		t.Errorf("hits = %d, want 10 (five reusing jobs x two endpoints)", st.Hits)
	}
	if st.Leased != 0 {
		t.Errorf("leased = %d after batch drained, want 0", st.Leased)
	}
}

// TestPooledManagerSurvivesIdleKill kills the pooled channels between
// jobs (the faultnet proxy resets every conn); the next job must
// succeed on transparently redialed channels, with the misses counter
// the only evidence anything happened.
func TestPooledManagerSurvivesIdleKill(t *testing.T) {
	r := rig.New(t)
	want := rig.Payload(3, 128<<10)
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{}, rig.Objects{"a": want, "b": want})
	dst := r.Server(gridftp.Config{Store: dstStore})
	proxy, err := faultnet.NewProxy(src.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	pool := connpool.New(connpool.Config{KeepAlive: -1})
	defer pool.Close()
	m, err := New(1, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	srcEP := Endpoint{Addr: proxy.Addr(), User: "u", Pass: "p"}
	run := func(name string) {
		t.Helper()
		id, err := m.Submit(ctx, Job{
			Src: srcEP, Dst: ep(dst), SrcName: name, DstName: name, Verify: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Wait(ctx, id)
		if err != nil || res.Status != Succeeded {
			t.Fatalf("job %s: %+v, %v", name, res, err)
		}
		if res.Attempts != 1 {
			t.Fatalf("job %s took %d attempts; the redial should be invisible", name, res.Attempts)
		}
	}
	run("a")
	misses := pool.Stats().Misses
	proxy.Reset() // the parked src channel dies while idle
	run("b")
	st := pool.Stats()
	if st.Misses != misses+1 {
		t.Errorf("misses = %d, want %d (one transparent redial)", st.Misses, misses+1)
	}
	if st.Leased != 0 {
		t.Errorf("leased = %d, want 0", st.Leased)
	}
	got, _ := dstStore.Get("b")
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted after redial")
	}
}

// TestPooledManagerDiscardsAfterFailure: when an attempt fails, the
// channels it used must be discarded, not parked — the retry and all
// later jobs get verified-healthy channels and still succeed.
func TestPooledManagerDiscardsAfterFailure(t *testing.T) {
	r := rig.New(t)
	store := &flakyStore{MemStore: gridftp.NewMemStore(), failures: 1}
	want := rig.Payload(3, 64<<10)
	dstStore := gridftp.NewMemStore()
	src := r.Server(gridftp.Config{Store: store}, rig.Objects{"data.bin": want})
	dst := r.Server(gridftp.Config{Store: dstStore})

	pool := connpool.New(connpool.Config{})
	defer pool.Close()
	m, err := New(1, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	id, err := m.Submit(ctx, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		Verify: true, MaxAttempts: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(ctx, id)
	if err != nil || res.Status != Succeeded {
		t.Fatalf("%+v, %v", res, err)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts)
	}
	st := pool.Stats()
	if st.Leased != 0 {
		t.Errorf("leased = %d after retryed job, want 0", st.Leased)
	}
	if st.Evictions == 0 {
		t.Error("failed attempt's channels were parked, not discarded")
	}
	got, _ := dstStore.Get("copy.bin")
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted")
	}
}

// TestPooledManagerCloseOrder: closing the manager then the pool (the
// documented order) strands nothing even with jobs recently finished.
func TestPooledManagerCloseOrder(t *testing.T) {
	r := rig.New(t)
	src := r.Server(gridftp.Config{}, rig.Objects{"x": rig.Payload(3, 4<<10)})
	dst := r.Server(gridftp.Config{})
	pool := connpool.New(connpool.Config{KeepAlive: 10 * time.Millisecond})
	m, err := New(2, WithPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id, err := m.Submit(ctx, Job{Src: ep(src), Dst: ep(dst), SrcName: "x", DstName: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.Wait(ctx, id); err != nil || res.Status != Succeeded {
		t.Fatalf("%+v, %v", res, err)
	}
	m.Close()
	pool.Close()
	if st := pool.Stats(); st.Leased != 0 || st.Idle != 0 {
		t.Fatalf("close left channels behind: %+v", st)
	}
}

// TestPooledJobSurvivesResetCachedChannel: two pooled jobs in a row get
// the same control-channel pair, so the second runs over the data
// channel the first left cached, whose destination end resets right
// after the first job's last byte. The second job still finishes in
// exactly two attempts — the retry on fresh channels — and its
// WireBytes equal the object size: the reset cost no payload.
func TestPooledJobSurvivesResetCachedChannel(t *testing.T) {
	for _, sf := range dstStoreFactories() {
		sf := sf
		t.Run(sf.name, func(t *testing.T) {
			const size, block = 256 << 10, 16 << 10
			// The first job's frames on the wire: a 17-byte MODE E header
			// per block, and the EOD.
			tracker := faultnet.ResetFirstConn(size + (size/block+1)*17)
			r := rig.New(t)
			want := rig.Payload(3, size)
			src := r.Server(gridftp.Config{BlockSize: block}, rig.Objects{"a.bin": want, "b.bin": want})
			dstStore := sf.make(t)
			dst := r.Server(gridftp.Config{Store: dstStore, BlockSize: block,
				DataTimeout: 500 * time.Millisecond, DataListen: tracker.Listen})
			hub, _ := r.Hub("xferman")
			pool := connpool.New(connpool.Config{MaxIdlePerEndpoint: 2, Telemetry: hub,
				Opts: func(string) []gridftp.Option { return []gridftp.Option{gridftp.WithTelemetry(hub)} }})
			defer pool.Close()
			m, err := New(1, WithPool(pool), WithTelemetry(hub))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			run := func(name string) Result {
				t.Helper()
				id, err := m.Submit(context.Background(), Job{Src: ep(src), Dst: ep(dst),
					SrcName: name, DstName: name, MaxAttempts: 3, Verify: true,
					RetryBackoff: 20 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				res, _ := m.Wait(context.Background(), id)
				if got, err := dstStore.Get(name); res.Status != Succeeded || err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s: status %v (%s), copy intact %v", name, res.Status, res.Err, bytes.Equal(got, want))
				}
				return res
			}
			if res := run("a.bin"); res.Attempts != 1 {
				t.Fatalf("first job took %d attempts", res.Attempts)
			}
			res := run("b.bin")
			if res.Attempts != 2 || res.WireBytes != size {
				t.Fatalf("attempts=%d WireBytes=%d, want 2 and %d", res.Attempts, res.WireBytes, size)
			}
			if n := hub.Counter("gridftp_client_data_channel_reuses_total", "").Value(); n != 1 {
				t.Fatalf("%d transfers reused a cached channel, want 1: the fault missed it", n)
			}
			if n := tracker.Total(); n != 2 {
				t.Fatalf("%d data listeners, want 2", n)
			}
		})
	}
}

// noopCounter is a Config.ControlListen hook that counts the NOOP
// commands clients send the server.
type noopCounter struct{ n atomic.Int64 }

func (c *noopCounter) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	return noopListener{ln, c}, err
}

type noopListener struct {
	net.Listener
	c *noopCounter
}

func (l noopListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return noopConn{conn, l.c}, nil
}

type noopConn struct {
	net.Conn
	c *noopCounter
}

func (c noopConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.c.n.Add(int64(bytes.Count(b[:n], []byte("NOOP\r\n"))))
	return n, err
}

// TestPooledManagerKeepsPairs is the hit-rate guard for pair leases: two
// workers run 400 third-party copies, each to its own name, through a
// pool that parks two channels per endpoint. At least 97% of the copies
// must run over the data channel their pair kept, the pool may dial
// only the two pairs, and no checkout may put a NOOP on the wire.
func TestPooledManagerKeepsPairs(t *testing.T) {
	const jobs = 400
	r := rig.New(t)
	var wire noopCounter
	src := r.Server(gridftp.Config{ControlListen: wire.Listen}, rig.Objects{"obj": rig.Payload(5, 64<<10)})
	dst := r.Server(gridftp.Config{ControlListen: wire.Listen})
	hub, _ := r.Hub("xferman")
	pool := connpool.New(connpool.Config{MaxIdlePerEndpoint: 2, KeepAlive: -1, Telemetry: hub,
		Opts: func(string) []gridftp.Option { return []gridftp.Option{gridftp.WithTelemetry(hub)} }})
	defer pool.Close()
	m, err := New(2, WithPool(pool), WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	ids := make([]JobID, jobs)
	for i := range ids {
		if ids[i], err = m.Submit(ctx, Job{Src: ep(src), Dst: ep(dst), SrcName: "obj", DstName: fmt.Sprintf("copy%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		if res, err := m.Wait(ctx, id); err != nil || res.Status != Succeeded {
			t.Fatalf("job %d: %+v, %v", id, res, err)
		}
	}
	reuses := hub.Counter("gridftp_client_data_channel_reuses_total", "").Value()
	if rate := float64(reuses) / jobs; rate < 0.97 {
		t.Errorf("hit rate %.3f (%d of %d copies reused a cached data channel), want >= 0.97", rate, reuses, jobs)
	}
	if st := pool.Stats(); st.Misses > 4 || st.Leased != 0 {
		t.Errorf("pool %+v: want at most 4 misses (two pairs) and nothing leased", st)
	}
	if n := wire.n.Load(); n != 0 {
		t.Errorf("%d NOOPs reached the servers; checkout must need no round trip", n)
	}
}
