// Livehybrid: the paper's hybrid VC/IP dispatch running live — real
// GridFTP servers moving bytes over loopback, a real oscarsd reservation
// daemon admitting circuits, and the session-aware broker deciding per
// session whether a virtual circuit is worth its setup delay.
//
// The drill runs two sessions through the managed-transfer pool:
//
//  1. a bulk session whose predicted duration amortizes the VC setup
//     delay — the broker reserves a circuit, back-to-back jobs share it,
//     and the gap timer cancels it when the session goes cold;
//  2. the same workload after a competing reservation has saturated the
//     reservable bandwidth — admission rejects the circuit and every
//     job falls back to best-effort IP without failing.
//
// Both dispositions are visible on each job's Result and on the shared
// /metrics exposition, and the live transfer spans are folded into a
// paper-style VC-vs-IP comparison at the end.
//
// The worker pool dials fresh control channels per attempt by default;
// -pool-idle N pools them per endpoint with a -keepalive NOOP interval
// instead (output is byte-identical with pooling off).
//
//	go run ./examples/livehybrid [-pool-idle 2] [-keepalive 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"gftpvc/internal/connpool"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/rig"
	"gftpvc/internal/vc"
	"gftpvc/internal/vc/broker"
	"gftpvc/internal/xferman"
)

// sizeHint advertises each job as a bulk transfer; the broker sizes
// and justifies circuits from these, while the actual loopback
// objects stay small enough to keep the drill fast.
const sizeHint = 256 << 20

func main() {
	poolIdle := flag.Int("pool-idle", 0, "pool control channels per endpoint, keeping up to this many idle (0: dial fresh per attempt)")
	keepalive := flag.Duration("keepalive", 30*time.Second, "NOOP interval for pooled idle control channels with -pool-idle")
	flag.Parse()
	ctx := context.Background()
	r := rig.Main()
	defer r.Close()
	hub, telURL := r.Hub("livehybrid")
	fmt.Printf("telemetry: %s/metrics\n", telURL)

	// Data plane: two GridFTP servers with a handful of objects.
	names := []string{"bulk/a.nc", "bulk/b.nc", "bulk/c.nc", "bulk/d.nc"}
	objects := rig.Objects{}
	for i, n := range names {
		objects[n] = rig.Payload(int64(11+i), 4<<20)
	}
	src := r.Server(gridftp.Config{Telemetry: hub}, objects)
	dst := r.Server(gridftp.Config{Telemetry: hub})

	// Control plane: oscarsd over the NERSC-ORNL reference topology,
	// the typed vc client, and the session broker (gap g scaled down
	// from the paper's 60s so the drill closes sessions in real time).
	const gap = 400 * time.Millisecond
	client, bk := r.ControlPlane(
		oscarsd.Config{ReservableFraction: 0.5, Telemetry: hub},
		broker.Config{
			Gap:        gap,
			SetupDelay: 50 * time.Millisecond,
			MinRateBps: 1e9, MaxRateBps: 1e9,
			Telemetry: hub,
		})
	fmt.Printf("oscarsd: %s topology on %s\n\n", "nersc-ornl", client.Addr())

	xmOpts := []xferman.Option{xferman.WithTelemetry(hub), xferman.WithBroker(bk)}
	if *poolIdle > 0 {
		pool := connpool.New(connpool.Config{
			MaxIdlePerEndpoint: *poolIdle,
			KeepAlive:          *keepalive,
			Telemetry:          hub,
			Opts: func(string) []gridftp.Option {
				return []gridftp.Option{gridftp.WithTelemetry(hub)}
			},
		})
		defer pool.Close()
		xmOpts = append(xmOpts, xferman.WithPool(pool))
	}
	m, err := xferman.New(2, xmOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	srcEP := xferman.Endpoint{Addr: src.Addr(), User: "anonymous", Pass: "demo@"}
	dstEP := xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "demo@"}
	runSession := func(tag string, objects []string) []xferman.Result {
		var ids []xferman.JobID
		for _, n := range objects {
			id, err := m.Submit(ctx, xferman.Job{
				Src: srcEP, Dst: dstEP,
				SrcName: n, DstName: tag + "/" + n,
				Verify: true, SizeHint: sizeHint,
			})
			if err != nil {
				log.Fatal(err)
			}
			ids = append(ids, id)
		}
		results := make([]xferman.Result, 0, len(ids))
		for _, id := range ids {
			res, err := m.Wait(ctx, id)
			if err != nil || res.Status != xferman.Succeeded {
				log.Fatalf("job %d: %+v, %v", id, res, err)
			}
			results = append(results, res)
			d := res.Circuit
			if d.Service == broker.ServiceVC {
				fmt.Printf("  %-12s via=vc circuit=%d setup=%-8v %v\n",
					res.Job.SrcName, d.CircuitID, d.SetupWait.Round(time.Microsecond),
					res.Duration.Round(time.Millisecond))
			} else {
				reason := "below amortization threshold"
				if d.Fallback != "" {
					reason = d.Fallback
				}
				fmt.Printf("  %-12s via=ip (%s) %v\n",
					res.Job.SrcName, reason, res.Duration.Round(time.Millisecond))
			}
		}
		return results
	}

	// Session 1: enough predicted bytes to amortize the setup delay —
	// the first job reserves, the rest ride the same circuit.
	fmt.Println("session 1: bulk transfers, reservable bandwidth free")
	vcResults := runSession("s1", names[:2])

	// Let the gap expire: the broker cancels the circuit.
	r.WaitFor("session 1 to expire", func() bool { return bk.Sessions() == 0 })

	// A competing reservation saturates the 5 Gbps-reservable path.
	now, err := client.Now(ctx)
	if err != nil {
		log.Fatal(err)
	}
	hog, err := client.Reserve(ctx, vc.ReserveRequest{
		Src: rig.SrcNode, Dst: rig.DstNode, RateBps: 4.5e9,
		Start: now + 1, End: now + 3600,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompeting circuit %d holds 4.5 of 5 Gbps reservable\n", hog.ID)

	// Session 2: same workload, but admission now rejects the broker's
	// 1 Gbps ask — every transfer still succeeds, over IP.
	fmt.Println("session 2: same workload after admission reject")
	ipResults := runSession("s2", names[2:])
	if err := client.Cancel(ctx, hog.ID); err != nil {
		log.Fatal(err)
	}

	// The control-plane story as the operator sees it on /metrics.
	fmt.Println("\nbroker decisions on /metrics:")
	resp, err := http.Get(telURL + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "vc_broker_") && !strings.Contains(line, "_bucket{") {
			fmt.Println("  " + line)
		}
	}

	// Paper-style comparison (cf. Tables I-IV): per-service throughput
	// from the live server-side transfer spans, joined to each job's
	// dispatch disposition.
	service := map[string]broker.Service{}
	for _, res := range vcResults {
		service[res.Job.SrcName] = res.Circuit.Service
	}
	for _, res := range ipResults {
		service[res.Job.SrcName] = res.Circuit.Service
	}
	type agg struct {
		jobs  int
		bytes int64
		secs  float64
	}
	byService := map[broker.Service]*agg{
		broker.ServiceVC: {}, broker.ServiceIP: {},
	}
	for _, sp := range hub.Spans().Snapshot() {
		if sp.Op != "retr" || sp.Err != "" {
			continue
		}
		svc, ok := service[sp.Target]
		if !ok {
			continue
		}
		a := byService[svc]
		a.jobs++
		a.bytes += sp.Bytes
		a.secs += sp.DurationSec
	}
	fmt.Println("\nVC vs IP, from live transfer spans:")
	for _, svc := range []broker.Service{broker.ServiceVC, broker.ServiceIP} {
		a := byService[svc]
		if a.secs == 0 {
			continue
		}
		fmt.Printf("  %-3s %d transfers, %4d MB, mean %6.0f Mbps\n",
			svc, a.jobs, a.bytes>>20, float64(a.bytes)*8/a.secs/1e6)
	}
	var setup time.Duration
	for _, res := range vcResults {
		setup += res.Circuit.SetupWait
	}
	fmt.Printf("\ntotal VC setup wait %v across %d circuit jobs; "+
		"IP fallback kept %d jobs moving during contention\n",
		setup.Round(time.Microsecond), len(vcResults), len(ipResults))
}
