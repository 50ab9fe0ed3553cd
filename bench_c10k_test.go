// C10k live-engine benchmark: one in-process GridFTP server carrying
// thousands of concurrent control-channel sessions, with dial and
// first-byte latency read off the telemetry spans at each population
// plateau, and a pooled-vs-redial A/B of per-job control setup.
//
// The host caps file descriptors at 20k, so the session population
// rides Config.ControlListen: control channels are synchronous
// net.Pipe pairs (zero fds), while the data plane stays on real TCP,
// one passive listener per transfer. TestC10kSmoke keeps a
// small always-on population in `go test ./...`; the full ramp runs
// from `make bench-c10k`, which writes BENCH_6.json:
//
//	C10K_OUT=BENCH_6.json go test -run TestC10kReport -timeout 20m .
//	C10K_XL=1 ...                      # adds a 100k-session plateau
package gftpvc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
)

// memListener hands out in-memory control connections: Accept feeds
// from a channel that dial() pushes net.Pipe halves into.
type memListener struct {
	ch   chan net.Conn
	done chan struct{}
	once sync.Once
}

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem:ctrl" }

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn, 128), done: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

func (l *memListener) dial() (net.Conn, error) {
	server, client := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.done:
		server.Close()
		client.Close()
		return nil, net.ErrClosed
	}
}

// memDialer routes control dials to the in-memory listener and
// everything else (the TCP data plane) to the kernel.
func memDialer(l *memListener) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		if addr == (memAddr{}).String() {
			return l.dial()
		}
		return net.DialTimeout(network, addr, 5*time.Second)
	}
}

func percentileMs(durs []float64, p float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	s := append([]float64(nil), durs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i] * 1e3
}

type plateauReport struct {
	Sessions       int     `json:"sessions"`
	RampSec        float64 `json:"ramp_sec"`
	DialP50Ms      float64 `json:"dial_p50_ms"`
	DialP99Ms      float64 `json:"dial_p99_ms"`
	FirstByteP50Ms float64 `json:"first_byte_p50_ms"`
	FirstByteP99Ms float64 `json:"first_byte_p99_ms"`
	RedialPerJobUs float64 `json:"redial_per_job_us"`
	PooledPerJobUs float64 `json:"pooled_per_job_us"`
	PooledSpeedupX float64 `json:"pooled_speedup_x"`
	PoolHits       int64   `json:"pool_hits"`
	PoolMisses     int64   `json:"pool_misses"`
}

type c10kReport struct {
	Benchmark string          `json:"benchmark"`
	Notes     string          `json:"notes"`
	Plateaus  []plateauReport `json:"plateaus"`
}

const (
	c10kProbes    = 200 // measured dial/login/close sessions per plateau
	c10kTransfers = 30  // measured transfers per plateau
	c10kABJobs    = 60  // per-mode jobs in the pooled-vs-redial A/B
)

// runC10k ramps one in-process server through the given session
// plateaus and measures each.
func runC10k(t *testing.T, plateaus []int) []plateauReport {
	t.Helper()
	r := rig.New(t)
	srvHub, _ := r.Hub("gftpd")
	ln := newMemListener()
	obj := make([]byte, 256<<10)
	for i := range obj {
		obj[i] = byte(i)
	}
	r.Server(gridftp.Config{
		Addr: "mem:ctrl",
		ControlListen: func(string, string) (net.Listener, error) {
			return ln, nil
		},
		Telemetry: srvHub,
	}, rig.Objects{"obj": obj})
	dialer := memDialer(ln)

	var held []*gridftp.Client
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	reports := make([]plateauReport, 0, len(plateaus))
	for _, target := range plateaus {
		rep := plateauReport{Sessions: target}
		rampStart := time.Now()
		for len(held) < target-c10kProbes {
			c, err := gridftp.Dial("mem:ctrl", gridftp.WithDialFunc(dialer))
			if err != nil {
				t.Fatalf("ramp dial at %d sessions: %v", len(held), err)
			}
			held = append(held, c)
		}
		rep.RampSec = time.Since(rampStart).Seconds()

		// Probe sessions: dial, login, NOOP, close — their session
		// spans carry the control_dial phase measured under the full
		// standing population.
		hub := telemetry.NewHubConfig(30, 4*c10kProbes)
		for i := 0; i < c10kProbes; i++ {
			c := r.Login("mem:ctrl", gridftp.WithDialFunc(dialer), gridftp.WithTelemetry(hub))
			if err := c.Noop(); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
		var dials []float64
		for _, sp := range hub.Spans().Snapshot() {
			if sp.Op != "session" || sp.Err != "" {
				continue
			}
			for _, ph := range sp.Phases {
				if ph.Name == telemetry.PhaseControlDial {
					dials = append(dials, ph.DurationSec)
				}
			}
		}
		if len(dials) != c10kProbes {
			t.Fatalf("at %d sessions: %d dial spans, want %d", target, len(dials), c10kProbes)
		}
		rep.DialP50Ms = percentileMs(dials, 0.50)
		rep.DialP99Ms = percentileMs(dials, 0.99)

		// Transfers over per-transfer passive listeners: the retr span's
		// data_setup phase is the first-byte latency (PASV listen, RETR,
		// TCP dial, accept).
		xc := r.Login("mem:ctrl", gridftp.WithDialFunc(dialer), gridftp.WithTelemetry(hub))
		for i := 0; i < c10kTransfers; i++ {
			if _, err := xc.RetrTo(context.Background(), "obj", io.Discard); err != nil {
				t.Fatalf("transfer %d at %d sessions: %v", i, target, err)
			}
		}
		xc.Close()
		var firstByte []float64
		for _, sp := range hub.Spans().Snapshot() {
			if sp.Op != "retr" || sp.Err != "" {
				continue
			}
			for _, ph := range sp.Phases {
				if ph.Name == telemetry.PhaseSetup {
					firstByte = append(firstByte, ph.DurationSec)
				}
			}
		}
		if len(firstByte) != c10kTransfers {
			t.Fatalf("at %d sessions: %d retr spans, want %d", target, len(firstByte), c10kTransfers)
		}
		rep.FirstByteP50Ms = percentileMs(firstByte, 0.50)
		rep.FirstByteP99Ms = percentileMs(firstByte, 0.99)

		// A/B: per-job control setup, fresh dial+login versus pooled
		// checkout, both under the standing population.
		var redial []float64
		for i := 0; i < c10kABJobs; i++ {
			start := time.Now()
			c := r.Login("mem:ctrl", gridftp.WithDialFunc(dialer))
			redial = append(redial, time.Since(start).Seconds())
			c.Close()
		}
		pool := connpool.New(connpool.Config{
			MaxIdlePerEndpoint: 1,
			KeepAlive:          -1,
			Opts: func(string) []gridftp.Option {
				return []gridftp.Option{gridftp.WithDialFunc(dialer)}
			},
		})
		warm, err := pool.Get(context.Background(), "mem:ctrl", "bench", "c10k@")
		if err != nil {
			t.Fatal(err)
		}
		warm.Release()
		var pooled []float64
		for i := 0; i < c10kABJobs; i++ {
			start := time.Now()
			c, err := pool.Get(context.Background(), "mem:ctrl", "bench", "c10k@")
			if err != nil {
				t.Fatal(err)
			}
			pooled = append(pooled, time.Since(start).Seconds())
			c.Release()
		}
		st := pool.Stats()
		pool.Close()
		rep.RedialPerJobUs = percentileMs(redial, 0.50) * 1e3
		rep.PooledPerJobUs = percentileMs(pooled, 0.50) * 1e3
		if rep.PooledPerJobUs > 0 {
			rep.PooledSpeedupX = rep.RedialPerJobUs / rep.PooledPerJobUs
		}
		rep.PoolHits, rep.PoolMisses = st.Hits, st.Misses
		t.Logf("%7d sessions: ramp %.2fs, dial p50 %.3fms p99 %.3fms, "+
			"first-byte p50 %.3fms p99 %.3fms, redial %.0fus vs pooled %.0fus (%.1fx)",
			target, rep.RampSec, rep.DialP50Ms, rep.DialP99Ms,
			rep.FirstByteP50Ms, rep.FirstByteP99Ms,
			rep.RedialPerJobUs, rep.PooledPerJobUs, rep.PooledSpeedupX)
		reports = append(reports, rep)
	}
	return reports
}

// TestC10kSmoke keeps the in-memory C10k rig honest in every `go test`
// run with a population small enough for CI.
func TestC10kSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("c10k smoke skipped in -short")
	}
	reports := runC10k(t, []int{400})
	if reports[0].PooledSpeedupX < 1 {
		t.Errorf("pooled checkout slower than redial: %+v", reports[0])
	}
}

// TestC10kReport runs the full ramp and writes the BENCH_6.json
// artifact; gated on C10K_OUT so plain `go test ./...` stays fast.
func TestC10kReport(t *testing.T) {
	out := os.Getenv("C10K_OUT")
	if out == "" {
		t.Skip("set C10K_OUT=BENCH_6.json to run the full C10k ramp")
	}
	plateaus := []int{1000, 10000}
	if os.Getenv("C10K_XL") != "" {
		plateaus = append(plateaus, 100000)
	}
	reports := runC10k(t, plateaus)
	for _, rep := range reports {
		if rep.Sessions >= 1000 && rep.PooledSpeedupX < 5 {
			t.Errorf("at %d sessions pooled speedup %.1fx < 5x (redial %.0fus, pooled %.0fus)",
				rep.Sessions, rep.PooledSpeedupX, rep.RedialPerJobUs, rep.PooledPerJobUs)
		}
	}
	blob, err := json.MarshalIndent(c10kReport{
		Benchmark: "c10k-live-engine",
		Notes: fmt.Sprintf("one in-process server, control channels over net.Pipe "+
			"(fd-free), data plane on one TCP passive listener per transfer; "+
			"%d probe sessions and %d transfers per plateau; per-job latencies are p50 over %d jobs",
			c10kProbes, c10kTransfers, c10kABJobs),
		Plateaus: reports,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}

// The paired microbenchmarks give `go test -bench` visibility into the
// same A/B without the population ramp.
func BenchmarkRedialPerJob(b *testing.B) {
	ln := newMemListener()
	rig.New(b).Server(gridftp.Config{
		Addr:          "mem:ctrl",
		ControlListen: func(string, string) (net.Listener, error) { return ln, nil },
	})
	dialer := memDialer(ln)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := gridftp.Dial("mem:ctrl", gridftp.WithDialFunc(dialer))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Login("bench", "c10k@"); err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

func BenchmarkPooledPerJob(b *testing.B) {
	ln := newMemListener()
	rig.New(b).Server(gridftp.Config{
		Addr:          "mem:ctrl",
		ControlListen: func(string, string) (net.Listener, error) { return ln, nil },
	})
	pool := connpool.New(connpool.Config{
		MaxIdlePerEndpoint: 1, KeepAlive: -1,
		Opts: func(string) []gridftp.Option {
			return []gridftp.Option{gridftp.WithDialFunc(memDialer(ln))}
		},
	})
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := pool.Get(context.Background(), "mem:ctrl", "bench", "c10k@")
		if err != nil {
			b.Fatal(err)
		}
		c.Release()
	}
}
