// Package rig builds the loopback cluster every live experiment here
// runs on: GridFTP servers with seeded stores, one telemetry hub and
// HTTP endpoint per "process", logged-in clients, background load, and
// the oscarsd → vc → broker control plane. It owns what those clusters
// repeat (bind address, credentials, scenario and route, teardown
// order) and takes the packages' own Config structs for the rest,
// filling only fields left zero. Every cluster ends in one teardown, so
// the leak census runs there, unasked. The rig sits below connpool,
// xferman and fleet so their tests can import it without a cycle.
package rig

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"strings"
	"sync"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc"
	"gftpvc/internal/vc/broker"
)

// TB is the subset of testing.TB the rig needs, so one API serves
// *testing.T, *testing.B and, through Main, a drill's main.
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Cleanup(func())
}

// SrcNode and DstNode are the nersc-ornl scenario's DTN pair: the
// static route ControlPlane maps every transfer onto.
const (
	SrcNode = "nersc-ornl-dtn-src"
	DstNode = "nersc-ornl-dtn-dst"
)

const (
	bind = "127.0.0.1:0"
	// acceptTimeout replaces the server's 10 s default: a failed
	// third-party leg leaves the receiver waiting for a data connection
	// that never comes, and that wait must end inside the settle time.
	acceptTimeout = 300 * time.Millisecond
)

// Objects seeds a server's store: object name → content.
type Objects map[string][]byte

// Payload returns n pseudo-random bytes, reproducible from seed.
func Payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

type rigHub struct {
	hub *telemetry.Hub
	url string
	ms  *telemetry.MetricsServer
}

// Rig is one cluster, built from the goroutine that owns tb (Fatalf is
// not callable from any other).
type Rig struct {
	tb      TB
	settle  time.Duration // how long the census lets a reading drain to zero
	closers []func()      // clients, load, control plane
	servers []*gridftp.Server
	hubs    []rigHub
}

// New starts an empty cluster whose Close runs as a tb.Cleanup.
func New(tb TB) *Rig {
	r := &Rig{tb: tb, settle: 2 * time.Second}
	tb.Cleanup(r.Close)
	return r
}

// Main is New for a drill's main: a failure is log.Fatalf, and main
// defers Close itself, which makes every drill census-checked too.
func Main() *Rig { return New(mainTB{}) }

type mainTB struct{}

func (mainTB) Helper()                           {}
func (mainTB) Fatalf(format string, args ...any) { log.Fatalf(format, args...) }
func (mainTB) Cleanup(func())                    {}

func (r *Rig) must(err error, what string) {
	r.tb.Helper()
	if err != nil {
		r.tb.Fatalf("rig: %s: %v", what, err)
	}
}

// Hub creates one "process": a hub named name and its HTTP endpoint's
// base URL. Every rig hub is a trace peer of every other, so /trace/<id>
// on any of them stitches the whole cluster.
func (r *Rig) Hub(name string) (*telemetry.Hub, string) {
	r.tb.Helper()
	// Sub-second live bins, so a fleet registry's load window reacts
	// within a test's lifetime.
	hub := telemetry.NewHubConfig(0.5, 0)
	hub.SetProcessName(name)
	ms, err := hub.ListenAndServe(bind)
	r.must(err, "hub "+name)
	url := "http://" + ms.Addr()
	for _, p := range r.hubs {
		p.hub.AddTracePeer(name, url)
		hub.AddTracePeer(p.hub.ProcessName(), p.url)
	}
	r.hubs = append(r.hubs, rigHub{hub, url, ms})
	return hub, url
}

// Server starts a GridFTP server with seed in its store. Zero Addr,
// Store, Telemetry and AcceptTimeout are filled (loopback, a MemStore,
// a hub of its own, a short wait); set fields pass through untouched.
func (r *Rig) Server(cfg gridftp.Config, seed ...Objects) *gridftp.Server {
	r.tb.Helper()
	if cfg.Addr == "" {
		cfg.Addr = bind
	}
	if cfg.Store == nil {
		cfg.Store = gridftp.NewMemStore()
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry, _ = r.Hub(fmt.Sprintf("gftpd-%d", len(r.servers)))
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = acceptTimeout
	}
	for _, objs := range seed {
		for name, data := range objs {
			r.must(cfg.Store.Put(name, data), "seeding "+name)
		}
	}
	s, err := gridftp.Serve(cfg)
	r.must(err, "serve")
	r.servers = append(r.servers, s)
	return s
}

// Login dials addr and logs in anonymously; the rig closes the client.
func (r *Rig) Login(addr string, opts ...gridftp.Option) *gridftp.Client {
	r.tb.Helper()
	c, err := gridftp.Dial(addr, opts...)
	r.must(err, "dial "+addr)
	r.closers = append(r.closers, func() { c.Close() })
	r.must(c.Login("anonymous", "rig@"), "login "+addr)
	return c
}

// ControlPlane starts oscarsd, dials it, and puts a session broker on
// the client. Zero Addr, Scenario (nersc-ornl) and Route (SrcNode →
// DstNode) are filled; the vc client reports to the broker's hub.
func (r *Rig) ControlPlane(ocfg oscarsd.Config, bcfg broker.Config) (*vc.Client, *broker.Broker) {
	r.tb.Helper()
	if ocfg.Addr == "" {
		ocfg.Addr = bind
	}
	if ocfg.Scenario == "" {
		ocfg.Scenario = "nersc-ornl"
	}
	if bcfg.Route == nil {
		bcfg.Route = broker.StaticRoute(SrcNode, DstNode)
	}
	osrv, err := oscarsd.Start(ocfg)
	r.must(err, "oscarsd")
	r.closers = append(r.closers, func() { osrv.Close() })
	client, err := vc.Dial(context.Background(), osrv.Addr(), vc.WithTelemetry(bcfg.Telemetry))
	r.must(err, "vc dial")
	r.closers = append(r.closers, func() { client.Close() })
	bk, err := broker.New(client, bcfg)
	r.must(err, "broker")
	r.closers = append(r.closers, bk.Close)
	return client, bk
}

// Load keeps n sessions retrieving name from addr back to back until
// teardown, which lets the transfers in flight finish.
func (r *Rig) Load(addr, name string, n int) {
	r.tb.Helper()
	ctx, stop := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		c := r.Login(addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				if _, err := c.RetrTo(context.Background(), name, io.Discard); err != nil {
					return
				}
			}
		}()
	}
	r.closers = append(r.closers, func() { stop(); wg.Wait() })
}

// WaitFor polls cond until it holds, failing at a 10 s deadline: the
// wait-on-the-event replacement for a fixed sleep.
func (r *Rig) WaitFor(what string, cond func() bool) {
	r.tb.Helper()
	if !poll(10*time.Second, cond) {
		r.tb.Fatalf("timed out waiting for %s", what)
	}
}

func poll(limit time.Duration, cond func() bool) bool {
	for end := time.Now().Add(limit); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(end) {
			return false
		}
	}
	return true
}

// Close tears the cluster down: clients, load and control plane newest
// first, then servers, then hub endpoints. On the way it takes the leak
// census — nothing in flight on any hub before the servers close, no
// session left after — and fails tb with every reading still non-zero.
func (r *Rig) Close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	leaks := r.census("gridftp_server_passive_listeners_open", "gridftp_server_data_channels_cached",
		"gridftp_server_sessions_active", "gridftp_pool_leased", "xferman_jobs_running",
		"xferman_queue_depth", "spans_active")
	for i := len(r.servers) - 1; i >= 0; i-- {
		r.servers[i].Close()
	}
	leaks = append(leaks, r.census("gridftp_server_sessions_active")...)
	for _, h := range r.hubs {
		h.ms.Close()
	}
	if len(leaks) > 0 {
		r.tb.Fatalf("rig: leak census:\n  %s", strings.Join(leaks, "\n  "))
	}
}

// census returns a "process reading = value" line per named reading
// still non-zero on some hub after the settle time: a release that
// trails the reply a client saw (deregistration after QUIT, a
// receiver's accept wait) gets that long, a leak never drains.
func (r *Rig) census(names ...string) (leaks []string) {
	end := time.Now().Add(r.settle)
	for _, h := range r.hubs {
		for _, name := range names {
			if !poll(time.Until(end), func() bool { return reading(h.hub, name) == 0 }) {
				leaks = append(leaks, fmt.Sprintf("%s %s = %d", h.hub.ProcessName(), name, reading(h.hub, name)))
			}
		}
	}
	return leaks
}

// reading is a census value by name: a gauge, or the in-flight spans.
func reading(hub *telemetry.Hub, name string) int64 {
	if name == "spans_active" {
		return int64(hub.Spans().Active())
	}
	return hub.Gauge(name, "").Value()
}
