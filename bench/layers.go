package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/dtnsched"
	"gftpvc/internal/experiments"
	"gftpvc/internal/fleet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/netsim"
	"gftpvc/internal/oscars"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/pacing"
	"gftpvc/internal/sessions"
	"gftpvc/internal/simclock"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/topo"
	"gftpvc/internal/vc"
	synth "gftpvc/internal/workload"
)

// The layer microbenchmarks time calls into each package's exported
// functions at fixed counts. A sample is one timed batch; a figure is
// the median of its samples.

// layerStat is one per-layer figure: the median of N samples and their
// interquartile range.
type layerStat struct {
	Median float64 `json:"median"`
	IQR    float64 `json:"iqr"`
	N      int     `json:"n"`
}

// cost classes a microbenchmark by the price of one sample, which sets
// how many samples a -trace 1 run can afford; -layers always takes ten.
type cost int

const (
	cheap cost = iota // milliseconds
	mid               // tenths of a second
	heavy             // seconds
)

type ledger struct {
	quick bool
	stats map[string]layerStat
}

func (l *ledger) samples(c cost) int {
	if !l.quick {
		return 10
	}
	return [...]int{cheap: 5, mid: 3, heavy: 1}[c]
}

func (l *ledger) record(name string, v []float64) {
	l.stats[name] = layerStat{Median: median(v), IQR: iqr(v), N: len(v)}
}

func (l *ledger) value(name string) float64 { return l.stats[name].Median }

// probe is what one timed batch cost.
type probe struct {
	wall   time.Duration
	cpu    time.Duration // user + system, every thread
	alloc  uint64
	allocs uint64
}

func timed(fn func() error) (probe, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	err := fn()
	s := u0.until(readUsage())
	runtime.ReadMemStats(&m1)
	return probe{wall: s.wall, cpu: s.user + s.sys, alloc: s.allocBytes, allocs: m1.Mallocs - m0.Mallocs}, err
}

// run takes n samples of fn and records one figure per entry of pick.
func (l *ledger) run(c cost, fn func() error, pick map[string]func(probe) float64) error {
	n := l.samples(c)
	vals := map[string][]float64{}
	for i := 0; i < n; i++ {
		p, err := timed(fn)
		if err != nil {
			return fmt.Errorf("%s: %w", anyKey(pick), err)
		}
		for name, f := range pick {
			vals[name] = append(vals[name], f(p))
		}
	}
	for name, v := range vals {
		l.record(name, v)
	}
	return nil
}

func anyKey(pick map[string]func(probe) float64) string {
	for name := range pick {
		return name
	}
	return ""
}

// fig is a pick of one figure.
func fig(name string, f func(probe) float64) map[string]func(probe) float64 {
	return map[string]func(probe) float64{name: f}
}

// wallPer returns a picker: wall time in units of div, per count.
func wallPer(count float64, div time.Duration) func(probe) float64 {
	return func(p probe) float64 { return float64(p.wall) / float64(div) / count }
}

const (
	blockSize = 256 << 10
	nBlocks   = bulkSize / blockSize
)

// ---- live layers: gridftp, pacing, telemetry, connpool, xferman, control plane ----

func liveLayers(quick bool) (map[string]layerStat, error) {
	l := &ledger{quick: quick, stats: map[string]layerStat{}}
	data := seededBytes(1, bulkSize)
	steps := []func(*ledger, []byte) error{
		layerFraming, layerWindow, layerStores, layerFloor, layerControl,
		layerLedger, layerPacing, layerTelemetry, layerPoolAndManager, layerControlPlane,
	}
	for _, step := range steps {
		if err := step(l, data); err != nil {
			return nil, err
		}
	}
	return l.stats, nil
}

func layerFraming(l *ledger, data []byte) error {
	err := l.run(cheap, func() error {
		for off := 0; off < bulkSize; off += blockSize {
			if err := gridftp.WriteBlock(io.Discard, gridftp.Block{Offset: uint64(off), Data: data[off : off+blockSize]}); err != nil {
				return err
			}
		}
		return nil
	}, map[string]func(probe) float64{
		"gridftp.modee.write_ns_per_byte":      wallPer(bulkSize, time.Nanosecond),
		"gridftp.modee.write_allocs_per_block": func(p probe) float64 { return float64(p.allocs) / nBlocks },
	})
	if err != nil {
		return err
	}
	// Real framing to read back: 16 MiB of blocks, read four times over.
	const framedBlocks = 64
	var framed bytes.Buffer
	for i := 0; i < framedBlocks; i++ {
		gridftp.WriteBlock(&framed, gridftp.Block{Offset: uint64(i * blockSize), Data: data[i*blockSize : (i+1)*blockSize]})
	}
	scratch := make([]byte, blockSize)
	return l.run(cheap, func() error {
		for pass := 0; pass < nBlocks/framedBlocks; pass++ {
			r := bytes.NewReader(framed.Bytes())
			for i := 0; i < framedBlocks; i++ {
				var err error
				if _, scratch, err = gridftp.ReadBlockInto(r, scratch); err != nil {
					return err
				}
			}
		}
		return nil
	}, map[string]func(probe) float64{
		"gridftp.modee.read_ns_per_byte":      wallPer(bulkSize, time.Nanosecond),
		"gridftp.modee.read_allocs_per_block": func(p probe) float64 { return float64(p.allocs) / nBlocks },
	})
}

func layerWindow(l *ledger, data []byte) error {
	const serverWindow = 8 << 20
	place := func(order func(i int) int) func() error {
		return func() error {
			a, err := gridftp.NewWindowAssembler(io.Discard, 0, bulkSize, serverWindow, 0)
			if err != nil {
				return err
			}
			for i := 0; i < nBlocks; i++ {
				off := order(i) * blockSize
				if err := a.Place(gridftp.Block{Offset: uint64(off), Data: data[off : off+blockSize]}); err != nil {
					return err
				}
			}
			return a.Finish()
		}
	}
	perByte := wallPer(bulkSize, time.Nanosecond)
	if err := l.run(cheap, place(func(i int) int { return i }), fig("gridftp.window.place_inorder_ns_per_byte", perByte)); err != nil {
		return err
	}
	// Two interleaved stripes with the odd one ahead: every odd block
	// parks in the window until its even neighbour arrives.
	if err := l.run(cheap, place(func(i int) int { return i ^ 1 }), fig("gridftp.window.place_2stream_ns_per_byte", perByte)); err != nil {
		return err
	}
	// The window a server allocates per STOR, however small the object.
	const news = 20
	err := l.run(cheap, func() error {
		for i := 0; i < news; i++ {
			if _, err := gridftp.NewWindowAssembler(io.Discard, 0, -1, serverWindow, 0); err != nil {
				return err
			}
		}
		return nil
	}, map[string]func(probe) float64{
		"gridftp.window.new_us":          wallPer(news, time.Microsecond),
		"gridftp.window.new_alloc_bytes": func(p probe) float64 { return float64(p.alloc) / news },
	})
	if err != nil {
		return err
	}
	return l.run(cheap, func() error {
		a, err := gridftp.NewAssembler(bulkSize)
		if err != nil {
			return err
		}
		for off := 0; off < bulkSize; off += blockSize {
			if err := a.Place(gridftp.Block{Offset: uint64(off), Data: data[off : off+blockSize]}); err != nil {
				return err
			}
		}
		return nil
	}, fig("gridftp.assembler.place_ns_per_byte", wallPer(bulkSize, time.Nanosecond)))
}

func layerStores(l *ledger, data []byte) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "stores-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	newDir := func(name string) (*gridftp.DirStore, error) {
		if err := os.Mkdir(filepath.Join(tmp, name), 0o755); err != nil {
			return nil, err
		}
		return gridftp.NewDirStore(filepath.Join(tmp, name))
	}
	dir, err := newDir("dir")
	if err != nil {
		return err
	}
	cold, err := newDir("tiered")
	if err != nil {
		return err
	}
	// A hot tier that admits the 64 MiB object, so that reads measure it.
	tiered, err := gridftp.NewTieredStore(cold, gridftp.TieredOptions{MaxHotBytes: 4 * bulkSize, MaxHotObjectBytes: 2 * bulkSize})
	if err != nil {
		return err
	}
	type fullStore interface {
		gridftp.Store
		gridftp.SnapshotStore
		gridftp.StreamPutter
	}
	for _, s := range []struct {
		name  string
		store fullStore
		cost  cost
	}{{"mem", gridftp.NewMemStore(), cheap}, {"dir", dir, mid}, {"tiered", tiered, mid}} {
		prefix := "gridftp.store." + s.name
		err := l.run(s.cost, func() error {
			if err := s.store.BeginPut("obj", 0); err != nil {
				return err
			}
			for off := 0; off < bulkSize; off += blockSize {
				if err := s.store.PutRegion("obj", int64(off), data[off:off+blockSize]); err != nil {
					return err
				}
			}
			return s.store.FinishPut("obj", bulkSize)
		}, map[string]func(probe) float64{
			prefix + ".write_ns_per_byte":          wallPer(bulkSize, time.Nanosecond),
			prefix + ".write_alloc_bytes_per_byte": func(p probe) float64 { return float64(p.alloc) / bulkSize },
		})
		if err != nil {
			return err
		}
		buf := make([]byte, blockSize)
		err = l.run(cheap, func() error {
			r, size, err := s.store.SnapshotObject("obj")
			if err != nil {
				return err
			}
			if c, ok := r.(io.Closer); ok {
				defer c.Close()
			}
			if size != bulkSize {
				return fmt.Errorf("snapshot of %d bytes, stored %d", size, bulkSize)
			}
			for off := int64(0); off < size; off += blockSize {
				if _, err := r.ReadAt(buf, off); err != nil {
					return err
				}
			}
			return nil
		}, fig(prefix+".read_ns_per_byte", wallPer(bulkSize, time.Nanosecond)))
		if err != nil {
			return err
		}
	}
	return nil
}

// layerFloor pushes the same 64 MiB through one raw loopback socket
// with io.Copy and no MODE E: what the bytes cost before the engine adds
// anything. Sender and receiver run on two goroutines, so the figure is
// CPU time (user + system of both), not wall time.
func layerFloor(l *ledger, data []byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	return l.run(cheap, func() error {
		done := make(chan error, 1)
		go func() {
			c, err := ln.Accept()
			if err != nil {
				done <- err
				return
			}
			defer c.Close()
			_, err = io.Copy(io.Discard, c)
			done <- err
		}()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return err
		}
		_, err = io.Copy(c, bytes.NewReader(data))
		c.Close()
		if rerr := <-done; err == nil {
			err = rerr
		}
		return err
	}, map[string]func(probe) float64{
		"floor.loopback_copy_ns_per_byte": func(p probe) float64 { return float64(p.cpu) / bulkSize },
	})
}

// layerControl times the control channel and the fixed cost of a
// transfer: everything a 1-byte RETR or STOR pays (PASV, listener,
// 150/226, span, usage record, window).
func layerControl(l *ledger, data []byte) error {
	store := gridftp.NewMemStore()
	store.Put("one", data[:1])
	store.Put("small", data[:smallSize])
	src, err := startServer(store, nil)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := startServer(gridftp.NewMemStore(), nil)
	if err != nil {
		return err
	}
	defer dst.Close()
	hub := telemetry.NewHub()
	cli, err := dialClient(src.Addr(), hub, nil)
	if err != nil {
		return err
	}
	defer cli.Close()
	dcli, err := dialClient(dst.Addr(), hub, nil)
	if err != nil {
		return err
	}
	defer dcli.Close()
	ctx := context.Background()
	const n = 100
	loop := func(fn func() error) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		}
	}
	perCall := func(name string) map[string]func(probe) float64 {
		return fig(name, wallPer(n, time.Microsecond))
	}
	if err := l.run(cheap, loop(cli.Noop), perCall("gridftp.control.noop_rtt_us")); err != nil {
		return err
	}
	if err := l.run(cheap, loop(func() error { _, err := cli.Size("small"); return err }), perCall("gridftp.control.size_us")); err != nil {
		return err
	}
	err = l.run(cheap, loop(func() error {
		c, err := dialClient(src.Addr(), hub, nil)
		if err != nil {
			return err
		}
		return c.Close()
	}), perCall("gridftp.session.dial_login_us"))
	if err != nil {
		return err
	}
	err = l.run(cheap, loop(func() error { _, err := cli.RetrTo(ctx, "one", io.Discard); return err }),
		map[string]func(probe) float64{
			"gridftp.xfer.fixed_retr_us":          wallPer(n, time.Microsecond),
			"gridftp.xfer.fixed_retr_alloc_bytes": func(p probe) float64 { return float64(p.alloc) / n },
		})
	if err != nil {
		return err
	}
	err = l.run(cheap, loop(func() error { _, err := cli.StorFrom(ctx, "up", bytes.NewReader(data[:1]), 1); return err }),
		map[string]func(probe) float64{
			"gridftp.xfer.fixed_stor_us":          wallPer(n, time.Microsecond),
			"gridftp.xfer.fixed_stor_alloc_bytes": func(p probe) float64 { return float64(p.alloc) / n },
		})
	if err != nil {
		return err
	}
	return l.run(cheap, loop(func() error { return gridftp.ThirdParty(cli, dcli, "small", "copy") }), perCall("gridftp.thirdparty_64k_us"))
}

// layerLedger asks how much of a bulk transfer's CPU time the layer
// figures above account for: the sum of the per-byte layers a byte
// crosses, over the end-to-end CPU nanoseconds per byte of a short run
// of the workload in this process.
func layerLedger(l *ledger, _ []byte) error {
	sums := map[string][]string{
		"bulk_retr": {"gridftp.store.mem.read_ns_per_byte", "gridftp.modee.write_ns_per_byte", "floor.loopback_copy_ns_per_byte",
			"gridftp.modee.read_ns_per_byte", "gridftp.window.place_2stream_ns_per_byte"},
		"bulk_stor": {"gridftp.modee.write_ns_per_byte", "floor.loopback_copy_ns_per_byte", "gridftp.modee.read_ns_per_byte",
			"gridftp.window.place_2stream_ns_per_byte", "gridftp.store.mem.write_ns_per_byte"},
	}
	const ops = 5
	for name, parts := range sums {
		w := findWorkload(name)
		r, err := w.setup(1, nil)
		if err != nil {
			return err
		}
		ctx := context.Background()
		var ratios []float64
		for s := 0; s < l.samples(mid); s++ {
			p, err := timed(func() error {
				for i := 0; i < ops; i++ {
					if err := r.op(ctx, i); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				r.close()
				return fmt.Errorf("ledger.%s: %w", name, err)
			}
			var explained float64
			for _, part := range parts {
				explained += l.value(part)
			}
			ratios = append(ratios, explained/(float64(p.cpu)/float64(ops*bulkSize)))
		}
		r.close()
		l.record("ledger."+name+".explained_ratio", ratios)
	}
	return nil
}

// discardConn is a net.Conn whose writes cost nothing, so that a paced
// connection over it shows the pacing layer's own cost.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

func layerPacing(l *ledger, data []byte) error {
	ctx := context.Background()
	// Rates no caller reaches: the limiter's bookkeeping without a wait.
	const unthrottled = 1 << 50
	const n = 100000
	bucket := pacing.NewBucket(unthrottled, 0)
	err := l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			if err := bucket.WaitN(ctx, 1024); err != nil {
				return err
			}
		}
		return nil
	}, fig("pacing.bucket.waitn_ns", wallPer(n, time.Nanosecond)))
	if err != nil {
		return err
	}
	lim := pacing.NewLimiter(pacing.NewBucket(unthrottled, 0), pacing.NewBucket(unthrottled, 0), pacing.NewBucket(unthrottled, 0))
	err = l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			if err := lim.WaitN(ctx, 1024); err != nil {
				return err
			}
		}
		return nil
	}, fig("pacing.limiter3.waitn_ns", wallPer(n, time.Nanosecond)))
	if err != nil {
		return err
	}
	paced := pacing.WrapConn(ctx, discardConn{}, lim, nil)
	err = l.run(cheap, func() error {
		for off := 0; off < bulkSize; off += 64 << 10 {
			if _, err := paced.Write(data[off : off+64<<10]); err != nil {
				return err
			}
		}
		return nil
	}, fig("pacing.conn.passthrough_ns_per_byte", wallPer(bulkSize, time.Nanosecond)))
	if err != nil {
		return err
	}

	// One transfer shaped to 64 Mbps for about two seconds.
	const rateBps, shapedSize = 64_000_000, 16 << 20
	store := gridftp.NewMemStore()
	store.Put("shaped", data[:shapedSize])
	srv, err := startServer(store, nil)
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := dialClient(srv.Addr(), telemetry.NewHub(), nil)
	if err != nil {
		return err
	}
	defer cli.Close()
	return l.run(heavy, func() error {
		_, err := cli.RetrTo(ctx, "shaped", io.Discard, gridftp.WithRate(rateBps))
		return err
	}, map[string]func(probe) float64{
		"pacing.rate_error_pct": func(p probe) float64 {
			achieved := shapedSize * 8 / p.wall.Seconds()
			return 100 * (achieved - rateBps) / rateBps
		},
	})
}

func layerTelemetry(l *ledger, _ []byte) error {
	hub := telemetry.NewHub()
	const n = 20000
	counter := hub.Counter("bench_counter_total", "bench")
	hist := hub.Histogram("bench_seconds", "bench", []float64{0.001, 0.01, 0.1, 1, 10})
	for name, fn := range map[string]func(i int){
		"telemetry.counter.add_ns":       func(int) { counter.Add(1) },
		"telemetry.histogram.observe_ns": func(i int) { hist.Observe(float64(i%100) / 100) },
		"telemetry.event.add_ns":         func(int) { hub.Event("", "bench", "detail") },
		"telemetry.span.lifecycle_ns": func(int) {
			sp := hub.Span("retr", "obj", telemetry.PhaseSetup)
			sp.Phase(telemetry.PhaseStream)
			sp.AddBytes(blockSize)
			sp.Phase(telemetry.PhaseTeardown)
			sp.End(nil)
		},
	} {
		err := l.run(cheap, func() error {
			for i := 0; i < n; i++ {
				fn(i)
			}
			return nil
		}, fig(name, wallPer(n, time.Nanosecond)))
		if err != nil {
			return err
		}
	}
	return nil
}

// layerPoolAndManager times the pool and one xferman job on a serial
// small_files rig, and the Prometheus rendering of the registry that rig
// leaves behind.
func layerPoolAndManager(l *ledger, _ []byte) error {
	r0, err := setupSmallFiles(1, nil)
	if err != nil {
		return err
	}
	r := r0.(*smallFiles)
	defer r.close()
	ctx := context.Background()
	const n = 100
	job := 0
	err = l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			if err := r.op(ctx, job); err != nil {
				return err
			}
			job++
		}
		return nil
	}, fig("xferman.job_64k_us", wallPer(n, time.Microsecond)))
	if err != nil {
		return err
	}
	err = l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			c, err := r.pool.Get(ctx, r.src.Addr(), "anonymous", "bench@")
			if err != nil {
				return err
			}
			c.Release()
		}
		return nil
	}, fig("connpool.get_hit_us", wallPer(n, time.Microsecond)))
	if err != nil {
		return err
	}
	// A pool that parks nothing: every Get dials and logs in.
	cold := connpool.New(connpool.Config{KeepAlive: -1})
	defer cold.Close()
	err = l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			c, err := cold.Get(ctx, r.src.Addr(), "anonymous", "bench@")
			if err != nil {
				return err
			}
			c.Discard()
		}
		return nil
	}, fig("connpool.get_miss_us", wallPer(n, time.Microsecond)))
	if err != nil {
		return err
	}
	l.stats["xferman.overhead_us"] = layerStat{
		Median: l.value("xferman.job_64k_us") - l.value("gridftp.thirdparty_64k_us") - 2*l.value("connpool.get_hit_us"),
		N:      l.stats["xferman.job_64k_us"].N,
	}
	const writes = 20
	return l.run(cheap, func() error {
		for i := 0; i < writes; i++ {
			if err := r.dst.hub.Registry().WriteProm(io.Discard); err != nil {
				return err
			}
		}
		return nil
	}, fig("telemetry.prom.write_us", wallPer(writes, time.Microsecond)))
}

// layerControlPlane guards the code no workload runs hot: placement,
// scraping, the bandwidth ledger, the DTN calendar and the reservation
// protocol.
func layerControlPlane(l *ledger, _ []byte) error {
	ctx := context.Background()
	var replicas []fleet.Replica
	for i := 0; i < 3; i++ {
		srv, err := startServer(gridftp.NewMemStore(), nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		ms, err := srv.hub.ListenAndServe("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ms.Close()
		replicas = append(replicas, fleet.Replica{Addr: srv.Addr(), TelemetryURL: "http://" + ms.Addr()})
	}
	disp, err := fleet.New(fleet.Config{Replicas: replicas, Admission: true})
	if err != nil {
		return err
	}
	defer disp.Close()
	const scrapes = 10
	err = l.run(cheap, func() error {
		for i := 0; i < scrapes; i++ {
			disp.Registry().ScrapeNow(ctx)
		}
		return nil
	}, fig("fleet.scrape3_ms", wallPer(scrapes, time.Millisecond)))
	if err != nil {
		return err
	}
	const n = 2000
	err = l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			p, err := disp.Place(ctx, fleet.Request{SizeBytes: smallSize})
			if err != nil {
				return err
			}
			p.Complete(smallSize, time.Millisecond, nil)
		}
		return nil
	}, fig("fleet.place_us", wallPer(n, time.Microsecond)))
	if err != nil {
		return err
	}

	scenario := topo.NERSCORNL()
	path, err := scenario.ForwardPath()
	if err != nil {
		return err
	}
	book, err := oscars.NewLedger(scenario.Topo, 0.5)
	if err != nil {
		return err
	}
	err = l.run(cheap, func() error {
		for i := 0; i < n; i++ {
			id := oscars.CircuitID(i + 1)
			if err := book.Reserve(path, 1e7, simclock.Time(i), simclock.Time(i+100), id); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			book.Release(oscars.CircuitID(i + 1))
		}
		return nil
	}, fig("oscars.reserve_us", wallPer(n, time.Microsecond)))
	if err != nil {
		return err
	}

	// A calendar that already holds a hundred bookings.
	const held = 100
	err = l.run(cheap, func() error {
		sched, err := dtnsched.New(1e9)
		if err != nil {
			return err
		}
		for i := 0; i < held+n/10; i++ {
			if _, err := sched.ReserveEarliest(6e8, 10, 0); err != nil {
				return err
			}
		}
		return nil
	}, fig("dtnsched.reserve_earliest_us", wallPer(held+n/10, time.Microsecond)))
	if err != nil {
		return err
	}

	daemon, err := oscarsd.Start(oscarsd.Config{Addr: "127.0.0.1:0", Scenario: "nersc-ornl", ReservableFraction: 0.5})
	if err != nil {
		return err
	}
	defer daemon.Close()
	client, err := vc.Dial(ctx, daemon.Addr())
	if err != nil {
		return err
	}
	defer client.Close()
	now, err := client.Now(ctx)
	if err != nil {
		return err
	}
	const calls = 500
	return l.run(cheap, func() error {
		for i := 0; i < calls; i++ {
			res, err := client.Reserve(ctx, vc.ReserveRequest{
				Src: string(scenario.SrcHost), Dst: string(scenario.DstHost), RateBps: 1e8, Start: now + 1000, End: now + 2000,
			})
			if err != nil {
				return err
			}
			if err := client.Cancel(ctx, res.ID); err != nil {
				return err
			}
		}
		return nil
	}, fig("vc.reserve_cancel_rtt_us", wallPer(calls, time.Microsecond)))
}

// ---- simulator layers: netsim, workload, sessions, experiments ----

func simLayers(quick bool) (map[string]layerStat, error) {
	l := &ledger{quick: quick, stats: map[string]layerStat{}}

	tp := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c"} {
		if _, err := tp.AddNode(id, topo.Host); err != nil {
			return nil, err
		}
	}
	tp.AddDuplex("a", "b", 10e9, 0.001)
	tp.AddDuplex("b", "c", 10e9, 0.001)
	path, err := tp.ShortestPath("a", "c")
	if err != nil {
		return nil, err
	}
	const flows = 1000
	err = l.run(mid, func() error {
		eng := simclock.New()
		nw := netsim.New(eng, tp)
		rng := rand.New(rand.NewSource(1))
		done := 0
		var startErr error
		for j := 0; j < flows; j++ {
			at, size := simclock.Time(rng.Float64()*10), 1e8+rng.Float64()*1e9
			eng.MustAt(at, func() {
				if _, err := nw.StartFlow(path, size, netsim.FlowOptions{OnDone: func(*netsim.Flow, simclock.Time) { done++ }}); err != nil {
					startErr = err
				}
			})
		}
		eng.Run()
		if startErr != nil {
			return startErr
		}
		if done != flows {
			return fmt.Errorf("netsim: %d of %d flows completed", done, flows)
		}
		return nil
	}, map[string]func(probe) float64{
		"netsim.flows1000_ms":     wallPer(1, time.Millisecond),
		"netsim.flows1000_allocs": func(p probe) float64 { return float64(p.allocs) },
	})
	if err != nil {
		return nil, err
	}

	// Every sample below takes a seed no cache of the process has seen.
	seed := int64(1000)
	fresh := func() int64 { seed++; return seed }
	var slac *synth.Dataset
	err = l.run(heavy, func() (err error) { slac, err = synth.SLACBNL(synth.Options{Seed: fresh()}); return },
		fig("workload.slac_synth_ms", wallPer(1, time.Millisecond)))
	if err != nil {
		return nil, err
	}
	err = l.run(heavy, func() error { _, err := sessions.Group(slac.Records, time.Minute); return err },
		fig("sessions.group_slac_ms", wallPer(1, time.Millisecond)))
	if err != nil {
		return nil, err
	}
	slac = nil
	err = l.run(mid, func() error { _, err := synth.NCARNICS(synth.Options{Seed: fresh()}); return err },
		fig("workload.ncar_synth_ms", wallPer(1, time.Millisecond)))
	if err != nil {
		return nil, err
	}
	// One pass regenerates every exhibit serially on one fresh seed, in
	// the order of IDs(): the exhibit that first needs a dataset pays
	// for its synthesis, the same one on every commit.
	ids := experiments.IDs()
	perID := map[string][]float64{}
	for s := 0; s < l.samples(heavy); s++ {
		passSeed := fresh()
		for _, id := range ids {
			p, err := timed(func() error { _, err := experiments.Run(id, passSeed); return err })
			if err != nil {
				return nil, fmt.Errorf("experiments.%s: %w", id, err)
			}
			perID[id] = append(perID[id], ms(p.wall))
		}
	}
	for id, v := range perID {
		l.record("experiments."+id+"_ms", v)
	}
	err = l.run(heavy, func() error { _, err := experiments.RunAll(ids, fresh(), 2); return err },
		fig("experiments.runall_wall_s", wallPer(1, time.Second)))
	if err != nil {
		return nil, err
	}
	return l.stats, nil
}
