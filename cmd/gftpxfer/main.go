// Command gftpxfer is the managed-transfer client: it submits a batch of
// third-party GridFTP transfers (server to server, like Globus Online
// jobs) to the xferman worker pool, with retries and CRC32 verification.
//
// With -oscars it becomes the paper's hybrid dispatcher: jobs are
// grouped into sessions by the -gap parameter and offered to a circuit
// broker, which reserves a virtual circuit from oscarsd for sessions
// long enough to amortize the VC setup delay and leaves everything else
// on best-effort IP. Each result line then reports the dispatch verdict.
//
// With -fleet instead of -src, each job's source is chosen per attempt
// from a replica set by the Eq. 2 contention model: the fleet registry
// scrapes every replica's telemetry and the dispatcher places the job
// where capacity minus live load is largest. Each result line then
// reports the replica used.
//
// Usage:
//
//	gftpxfer -src 127.0.0.1:2811 -dst 127.0.0.1:2812 \
//	         -files run1/a.nc,run1/b.nc -workers 3 -verify
//	gftpxfer -src ... -dst ... -all / -oscars 127.0.0.1:5814 -gap 60s
//	gftpxfer -fleet 'h1:2811=http://h1:9311,h2:2811=http://h2:9311' \
//	         -dst ... -files ...
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/fleet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc"
	"gftpvc/internal/vc/broker"
	"gftpvc/internal/xferman"
)

func main() {
	var (
		srcAddr   = flag.String("src", "", "source GridFTP server address")
		dstAddr   = flag.String("dst", "", "destination GridFTP server address")
		files     = flag.String("files", "", "comma-separated object names to transfer")
		all       = flag.String("all", "", "transfer every object under this prefix (NLST); use '/' for everything")
		prefix    = flag.String("prefix", "", "prefix for destination names (default: same names)")
		workers   = flag.Int("workers", 2, "concurrent transfers")
		attempts  = flag.Int("attempts", 3, "max attempts per transfer")
		verify    = flag.Bool("verify", true, "verify CRC32 checksums after each transfer")
		user      = flag.String("user", "anonymous", "username for both servers")
		pass      = flag.String("pass", "gftpxfer@", "password for both servers")
		timeout   = flag.Duration("timeout", 0, "per-operation control/data I/O deadline (0: gridftp default, 30s)")
		stream    = flag.Bool("stream", false, "relay objects through this process's streaming data plane (bounded memory, exact wire accounting) instead of server-to-server third-party transfers")
		window    = flag.Int("window", 0, "streaming reassembly window in bytes with -stream (0: gridftp default, 4 MiB); bounds relay memory and worst-case re-sent bytes on resume")
		noResume  = flag.Bool("no-resume", false, "restart failed transfers from byte zero instead of resuming at the destination's delivered watermark")
		poolIdle  = flag.Int("pool-idle", 0, "pool control channels per endpoint, keeping up to this many idle (0: dial fresh per attempt, the historical behavior)")
		keepal    = flag.Duration("keepalive", 30*time.Second, "NOOP interval for pooled idle control channels with -pool-idle (keep below the servers' idle timeout)")
		metrics   = flag.String("metrics-addr", "", "telemetry HTTP listen address serving /metrics, /spans, /counters, /healthz, /trace, /events, /debug/pprof (optional)")
		trace     = flag.Bool("trace", false, "mint a trace ID per job, propagate it to both servers (SITE TRID), the broker and the pool, and report it per result line; requires -metrics-addr")
		tracePeer = flag.String("trace-peers", "", "comma-separated name=http://host:port telemetry bases of the servers/daemons this client talks to; /trace/<id> stitches their spans into one tree")

		rate   = flag.Int64("rate", 0, "shape every job's data plane to this rate in bits/sec (0: defer to the circuit's reserved rate, then the class rate)")
		class  = flag.String("class", "bulk", "QoS class for every job: interactive, bulk, or background")
		bgRate = flag.Int64("background-rate", 0, "rate cap in bits/sec for background-class jobs without their own -rate (0: uncapped)")

		fleetSet = flag.String("fleet", "", "comma-separated source replicas, each addr or addr=telemetry-url; every job's source is picked per attempt by predicted effective rate (replaces -src; replicas without a telemetry URL only receive round-robin fallback)")
		fleetCap = flag.Int64("fleet-capacity", 0, "per-replica aggregate capacity R in bits/sec for the placement model (0: 1e9); match the replicas' -aggregate-rate")
		fleetAdm = flag.Bool("fleet-admission", false, "claim reserved capacity on the chosen replica for each job's predicted duration, so simultaneous placements see each other before the next telemetry scrape")

		oscars  = flag.String("oscars", "", "oscarsd reservation daemon address; enables hybrid VC/IP dispatch (optional)")
		gap     = flag.Duration("gap", 60*time.Second, "session gap parameter g: back-to-back jobs closer than this share one session/circuit")
		setup   = flag.Duration("vc-setup", time.Minute, "assumed VC setup delay a session must amortize")
		srcNode = flag.String("vc-src-node", "nersc-ornl-dtn-src", "topology node the -src endpoint maps to")
		dstNode = flag.String("vc-dst-node", "nersc-ornl-dtn-dst", "topology node the -dst endpoint maps to")
	)
	flag.Parse()
	if (*srcAddr == "" && *fleetSet == "") || *dstAddr == "" || (*files == "" && *all == "") {
		fmt.Fprintln(os.Stderr, "gftpxfer: -src (or -fleet), -dst and one of -files/-all are required")
		os.Exit(2)
	}
	if *fleetSet != "" && *srcAddr != "" {
		fmt.Fprintln(os.Stderr, "gftpxfer: -fleet and -src are mutually exclusive")
		os.Exit(2)
	}
	if *fleetSet != "" && *all != "" {
		fmt.Fprintln(os.Stderr, "gftpxfer: -all needs a fixed -src to list; use -files with -fleet")
		os.Exit(2)
	}
	if *trace && *metrics == "" {
		fmt.Fprintln(os.Stderr, "gftpxfer: -trace requires -metrics-addr (traces are served over the telemetry endpoint)")
		os.Exit(2)
	}
	ctx := context.Background()
	var opts []xferman.Option
	var hub *telemetry.Hub
	if *metrics != "" {
		hub = telemetry.NewHub()
		hub.SetProcessName("gftpxfer")
		for _, peer := range strings.Split(*tracePeer, ",") {
			peer = strings.TrimSpace(peer)
			if peer == "" {
				continue
			}
			name, base, ok := strings.Cut(peer, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "gftpxfer: -trace-peers entry %q is not name=url\n", peer)
				os.Exit(2)
			}
			hub.AddTracePeer(name, base)
		}
		ms, err := hub.ListenAndServe(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: metrics: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		opts = append(opts, xferman.WithTelemetry(hub))
		if *trace {
			opts = append(opts, xferman.WithTracing())
		}
		fmt.Fprintf(os.Stderr, "gftpxfer: telemetry on http://%s/metrics\n", ms.Addr())
	}
	hybrid := *oscars != ""
	if hybrid {
		client, err := vc.Dial(ctx, *oscars, vc.WithTelemetry(hub))
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: oscars: %v\n", err)
			os.Exit(1)
		}
		defer client.Close()
		bk, err := broker.New(client, broker.Config{
			Gap:        *gap,
			SetupDelay: *setup,
			Route:      broker.StaticRoute(*srcNode, *dstNode),
			Telemetry:  hub,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: broker: %v\n", err)
			os.Exit(1)
		}
		defer bk.Close()
		opts = append(opts, xferman.WithBroker(bk))
		hub.RegisterHealth("oscarsd", func() error {
			pctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := client.Now(pctx)
			return err
		})
		fmt.Fprintf(os.Stderr, "gftpxfer: hybrid dispatch via %s (gap %v)\n", *oscars, *gap)
	}
	if *poolIdle > 0 {
		pool := connpool.New(connpool.Config{
			MaxIdlePerEndpoint: *poolIdle,
			KeepAlive:          *keepal,
			Telemetry:          hub,
			Opts: func(string) []gridftp.Option {
				var o []gridftp.Option
				if *timeout > 0 {
					o = append(o, gridftp.WithControlTimeout(*timeout), gridftp.WithDataTimeout(*timeout))
				}
				if hub != nil {
					o = append(o, gridftp.WithTelemetry(hub))
				}
				return o
			},
		})
		defer pool.Close()
		opts = append(opts, xferman.WithPool(pool))
		fmt.Fprintf(os.Stderr, "gftpxfer: pooling control channels (idle %d/endpoint, keepalive %v)\n", *poolIdle, *keepal)
	}
	if *bgRate > 0 {
		opts = append(opts, xferman.WithClassRate(xferman.ClassBackground, *bgRate))
	}
	fleeting := *fleetSet != ""
	if fleeting {
		var reps []fleet.Replica
		for _, item := range strings.Split(*fleetSet, ",") {
			item = strings.TrimSpace(item)
			if item == "" {
				continue
			}
			addr, tel, _ := strings.Cut(item, "=")
			reps = append(reps, fleet.Replica{Addr: addr, TelemetryURL: tel})
		}
		disp, err := fleet.New(fleet.Config{
			Replicas:    reps,
			CapacityBps: float64(*fleetCap),
			Admission:   *fleetAdm,
			Telemetry:   hub,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: fleet: %v\n", err)
			os.Exit(1)
		}
		defer disp.Close()
		// Warm the registry synchronously so the first batch of
		// placements is informed instead of racing the scrape loop into
		// a sticky round-robin fallback.
		wctx, cancel := context.WithTimeout(ctx, 3*time.Second)
		disp.Registry().ScrapeNow(wctx)
		cancel()
		opts = append(opts, xferman.WithFleet(disp))
		fmt.Fprintf(os.Stderr, "gftpxfer: fleet dispatch across %d replicas\n", len(reps))
	}
	m, err := xferman.New(*workers, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gftpxfer: %v\n", err)
		os.Exit(1)
	}
	defer m.Close()
	srcEP := xferman.Endpoint{Addr: *srcAddr, User: *user, Pass: *pass}
	dstEP := xferman.Endpoint{Addr: *dstAddr, User: *user, Pass: *pass}
	tmpl := xferman.Job{
		MaxAttempts: *attempts, Verify: *verify, Timeout: *timeout,
		Stream: *stream, WindowBytes: *window, NoResume: *noResume,
		RateBps: *rate, Class: xferman.Class(*class),
	}
	var ids []xferman.JobID
	if *all != "" {
		listPrefix := *all
		if listPrefix == "/" {
			listPrefix = ""
		}
		ids, err = m.SubmitAll(ctx, srcEP, dstEP, listPrefix, tmpl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: %v\n", err)
			os.Exit(1)
		}
	}
	for _, name := range strings.Split(*files, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		job := tmpl
		job.Src, job.Dst = srcEP, dstEP
		job.SrcName, job.DstName = name, *prefix+name
		id, err := m.Submit(ctx, job)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: submit %s: %v\n", name, err)
			os.Exit(1)
		}
		ids = append(ids, id)
	}
	failed := 0
	for _, id := range ids {
		res, err := m.Wait(ctx, id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gftpxfer: %v\n", err)
			os.Exit(1)
		}
		switch res.Status {
		case xferman.Succeeded:
			sum := res.Checksum
			if sum == "" {
				sum = "-"
			}
			fmt.Printf("ok   %-30s -> %-30s attempts=%d crc32=%s %v%s%s%s%s\n",
				res.Job.SrcName, res.Job.DstName, res.Attempts, sum,
				res.Duration.Round(1e6), via(hybrid, res), rateSuffix(res),
				replicaSuffix(res), traceSuffix(res))
		default:
			failed++
			fmt.Printf("FAIL %-30s -> %-30s attempts=%d: %s%s\n",
				res.Job.SrcName, res.Job.DstName, res.Attempts, res.Err, traceSuffix(res))
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// rateSuffix renders the rate the job's data plane was shaped to; an
// unshaped job prints nothing, keeping output byte-identical to the
// pre-pacing tool.
func rateSuffix(res xferman.Result) string {
	if res.ShapedRateBps <= 0 {
		return ""
	}
	return fmt.Sprintf(" rate=%dbps", res.ShapedRateBps)
}

// replicaSuffix renders the replica a fleet-managed job ran on; a
// pinned-source job prints nothing, keeping output byte-identical to
// the pre-fleet tool.
func replicaSuffix(res xferman.Result) string {
	if res.Replica == "" {
		return ""
	}
	return " replica=" + res.Replica
}

// traceSuffix renders the job's trace ID when tracing is on; without
// -trace no ID is minted and the output stays byte-identical.
func traceSuffix(res xferman.Result) string {
	if res.TraceID == "" {
		return ""
	}
	return " trace=" + res.TraceID
}

// via renders the dispatch disposition suffix for hybrid runs; without
// -oscars the output stays byte-identical to the IP-only tool.
func via(hybrid bool, res xferman.Result) string {
	if !hybrid {
		return ""
	}
	d := res.Circuit
	if d.Service == broker.ServiceVC {
		return fmt.Sprintf(" via=vc circuit=%d setup=%v", d.CircuitID, d.SetupWait.Round(1e6))
	}
	if d.Fallback != "" {
		return " via=ip fallback=" + strings.Fields(d.Fallback)[0]
	}
	return " via=ip"
}
