// Livetrace: cross-process transfer tracing and live variance
// attribution on the real engine. Four telemetry hubs play four
// processes — the managed-transfer client, the two GridFTP servers,
// and the oscarsd reservation daemon — each with its own flight
// recorder and span log, linked only by trace IDs carried on the wire
// (SITE TRID on the control channels, the trace field on oscarsd
// requests).
//
// The drill pushes N concurrent transfers through one destination
// server — enough contention to spread the latency distribution — then:
//
//  1. shows one job's trace ID surfacing in the client's, both
//     servers', and oscarsd's event rings (the flight recorder);
//
//  2. fetches the slowest job's stitched /trace/<id> tree, spanning
//     every process the transfer touched, each span's phases summing
//     exactly to its wall time;
//
//  3. decomposes the fleet's p99 slowness by phase — the live analogue
//     of the paper's variance analysis (Figs 7-8 / Eq. 2): instead of
//     modeling where the tail comes from, the spans measured it.
//
//     go run ./examples/livetrace [-jobs 12] [-workers 4]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"sort"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc/broker"
	"gftpvc/internal/xferman"
)

func main() {
	jobs := flag.Int("jobs", 12, "concurrent transfers to run against the one destination server")
	workers := flag.Int("workers", 4, "xferman worker pool size")
	flag.Parse()
	ctx := context.Background()

	// One hub per "process", each serving its own telemetry endpoint
	// and knowing the others as trace peers.
	r := rig.Main()
	defer r.Close()
	hubX, urlX := r.Hub("xferman")
	hubSrc, urlSrc := r.Hub("gftpd-src")
	hubDst, urlDst := r.Hub("gftpd-dst")
	hubOsc, urlOsc := r.Hub("oscarsd")
	fmt.Printf("telemetry: xferman %s  src %s  dst %s  oscarsd %s\n\n", urlX, urlSrc, urlDst, urlOsc)

	// Data plane: one source, one destination everything funnels into.
	names := make([]string, *jobs)
	objects := rig.Objects{}
	for i := range names {
		names[i] = fmt.Sprintf("run/obj-%02d.nc", i)
		objects[names[i]] = rig.Payload(int64(7+i), 2<<20)
	}
	src := r.Server(gridftp.Config{Telemetry: hubSrc}, objects)
	dst := r.Server(gridftp.Config{Telemetry: hubDst})

	// Control plane, so broker decisions land in the trace too.
	_, bk := r.ControlPlane(
		oscarsd.Config{ReservableFraction: 0.5, Telemetry: hubOsc},
		broker.Config{
			Gap:        300 * time.Millisecond,
			SetupDelay: 20 * time.Millisecond,
			MinRateBps: 1e9, MaxRateBps: 1e9,
			Telemetry: hubX,
		})

	m, err := xferman.New(*workers,
		xferman.WithTelemetry(hubX), xferman.WithBroker(bk), xferman.WithTracing())
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()

	srcEP := xferman.Endpoint{Addr: src.Addr(), User: "anonymous", Pass: "demo@"}
	dstEP := xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "demo@"}
	var ids []xferman.JobID
	for _, n := range names {
		id, err := m.Submit(ctx, xferman.Job{
			Src: srcEP, Dst: dstEP, SrcName: n, DstName: "out/" + n,
			Verify: true, SizeHint: 256 << 20,
		})
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, id)
	}
	var results []xferman.Result
	for _, id := range ids {
		res, err := m.Wait(ctx, id)
		if err != nil || res.Status != xferman.Succeeded {
			log.Fatalf("job %d: %+v, %v", id, res, err)
		}
		results = append(results, res)
		fmt.Printf("  %-16s %8v  trace=%s\n",
			res.Job.SrcName, res.Duration.Round(time.Millisecond), res.TraceID)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Duration < results[j].Duration })
	slow := results[len(results)-1]

	// 1. The flight recorder: the same trace ID in every process's ring.
	fmt.Printf("\nflight recorder, trace %s across processes:\n", slow.TraceID)
	for _, ep := range []string{urlX, urlSrc, urlDst, urlOsc} {
		var ring struct {
			Process string            `json:"process"`
			Events  []telemetry.Event `json:"events"`
		}
		getJSON(ep+"/events?trace="+slow.TraceID, &ring)
		for _, ev := range ring.Events {
			fmt.Printf("  %-10s %9.3fs %-16s %s\n", ring.Process, ev.TimeSec, ev.Kind, ev.Detail)
		}
	}

	// 2. The stitched tree for the slowest transfer.
	var report telemetry.TraceReport
	getJSON(urlX+"/trace/"+slow.TraceID, &report)
	fmt.Printf("\nstitched /trace/%s (%d processes):\n", report.TraceID, len(report.Processes))
	for _, node := range report.Tree {
		printNode(node, "  ")
	}

	// 3. Variance attribution over the fleet's job spans: compare the
	// p99-slowest job's phase profile against the per-phase medians.
	var jobSpans []telemetry.SpanSnapshot
	for _, sp := range hubX.Spans().Snapshot() {
		if sp.Op == "job" && sp.Err == "" {
			jobSpans = append(jobSpans, sp)
		}
	}
	sort.Slice(jobSpans, func(i, j int) bool { return jobSpans[i].DurationSec < jobSpans[j].DurationSec })
	if len(jobSpans) == 0 {
		log.Fatal("no job spans recorded")
	}
	med := jobSpans[len(jobSpans)/2]
	tail := jobSpans[len(jobSpans)-1]
	medPh, tailPh := phaseTotals(med), phaseTotals(tail)
	var totalDelta float64
	for ph, d := range tailPh {
		if d > medPh[ph] {
			totalDelta += d - medPh[ph]
		}
	}
	fmt.Printf("\nvariance attribution over %d jobs: p50 %.3fs, p99 %.3fs\n",
		len(jobSpans), med.DurationSec, tail.DurationSec)
	phases := make([]telemetry.Phase, 0, len(tailPh))
	for ph := range tailPh {
		phases = append(phases, ph)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for _, ph := range phases {
		d := tailPh[ph] - medPh[ph]
		share := ""
		if d > 0 && totalDelta > 0 {
			share = fmt.Sprintf("  (%.0f%% of the slowdown)", 100*d/totalDelta)
		}
		fmt.Printf("  %-12s p50 %8.4fs  p99-span %8.4fs  delta %+8.4fs%s\n",
			string(ph), medPh[ph], tailPh[ph], d, share)
	}
}

// printNode renders one span of the stitched tree with its phase
// decomposition; phases sum exactly to the span's wall time.
func printNode(n *telemetry.TraceNode, indent string) {
	var phases string
	for _, ph := range n.Span.Phases {
		phases += fmt.Sprintf(" %s=%.1fms", ph.Name, ph.DurationSec*1e3)
	}
	fmt.Printf("%s%-10s %-6s %-20s %7.1fms %s\n",
		indent, n.Process, n.Span.Op, n.Span.Target, n.Span.DurationSec*1e3, phases)
	for _, c := range n.Children {
		printNode(c, indent+"  ")
	}
}

func phaseTotals(sp telemetry.SpanSnapshot) map[telemetry.Phase]float64 {
	out := make(map[telemetry.Phase]float64, len(sp.Phases))
	for _, ph := range sp.Phases {
		out[ph.Name] += ph.DurationSec
	}
	return out
}

func getJSON(url string, into any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatalf("%s: %v", url, err)
	}
}
