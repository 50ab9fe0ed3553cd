// Fleet-placement benchmark: the live A/B behind the fleet dispatcher's
// claim — that placing jobs by the Eq. 2 contention model (capacity
// minus scraped live load) beats blind round-robin when replicas are
// unevenly loaded, the situation the paper's server-contention analysis
// (Figs 7-8, Tables I-IV) shows dominates DTN transfer variance.
//
// Three rate-capped in-process gftpd replicas serve the same dataset;
// replica 0 carries a pile of unshaped background transfers for the
// whole run. M managed third-party jobs are dispatched twice: pinned
// round-robin across the replicas, then fleet-placed with admission
// claims on. Round-robin sends a third of the jobs into the contention
// and their completion times spread; fleet placement steers around it.
//
// Gated on FLEET_OUT so plain `go test ./...` stays fast:
//
//	FLEET_OUT=BENCH_10.json go test -run TestFleetReport -timeout 10m .
package gftpvc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"gftpvc/internal/fleet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/xferman"
)

type fleetArm struct {
	Policy     string         `json:"policy"`
	Jobs       int            `json:"jobs"`
	MeanMs     float64        `json:"mean_ms"`
	StddevMs   float64        `json:"stddev_ms"`
	P99Ms      float64        `json:"p99_ms"`
	CV         float64        `json:"cv"`
	Placements map[string]int `json:"placements"`
	Fallbacks  int64          `json:"fallbacks"`
}

type fleetReport struct {
	Benchmark      string     `json:"benchmark"`
	Notes          string     `json:"notes"`
	Replicas       int        `json:"replicas"`
	CapacityBps    float64    `json:"capacity_bps"`
	BackgroundJobs int        `json:"background_jobs"`
	Arms           []fleetArm `json:"arms"`
	CVReduction    float64    `json:"cv_reduction_x"`
	P99Reduction   float64    `json:"p99_reduction_x"`
}

// benchReplica is one in-process gftpd with its own telemetry endpoint.
type benchReplica struct {
	srv *gridftp.Server
	hub *telemetry.Hub
	tel string
}

// runFleetArm pushes nJobs third-party copies to dst, sourced either
// round-robin (disp nil) or by the fleet dispatcher, and returns each
// job's wall seconds plus where the jobs ran.
func runFleetArm(t *testing.T, reps []benchReplica, dst *gridftp.Server, disp *fleet.Dispatcher, nJobs, workers int, size int64, tag string) ([]float64, map[string]int) {
	t.Helper()
	var opts []xferman.Option
	if disp != nil {
		opts = append(opts, xferman.WithFleet(disp))
	}
	m, err := xferman.New(workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ids := make([]xferman.JobID, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		job := xferman.Job{
			Src:      xferman.Endpoint{User: "anonymous", Pass: "bench@"},
			Dst:      xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "bench@"},
			SrcName:  "dataset.bin",
			DstName:  fmt.Sprintf("%s-%02d.bin", tag, i),
			SizeHint: size,
		}
		if disp == nil {
			job.Src.Addr = reps[i%len(reps)].srv.Addr()
		}
		id, err := m.Submit(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	durs := make([]float64, 0, nJobs)
	where := make(map[string]int)
	for _, id := range ids {
		res, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != xferman.Succeeded {
			t.Fatalf("%s job %d failed: %s", tag, id, res.Err)
		}
		durs = append(durs, res.Duration.Seconds())
		src := res.Replica
		if src == "" {
			src = res.Job.Src.Addr
		}
		where[src]++
	}
	return durs, where
}

func TestFleetReport(t *testing.T) {
	outPath := os.Getenv("FLEET_OUT")
	if outPath == "" {
		t.Skip("set FLEET_OUT=<file> to run the fleet placement benchmark")
	}
	const (
		nReplicas = 3
		capBps    = int64(160e6)
		objSize   = 2 << 20
		nJobs     = 18
		workers   = 6
		nBg       = 6
	)
	r := rig.New(t)
	dataset := rig.Objects{"dataset.bin": rig.Payload(23, objSize)}
	var reps []benchReplica
	for i := 0; i < nReplicas; i++ {
		hub, tel := r.Hub(fmt.Sprintf("gftpd-%d", i))
		srv := r.Server(gridftp.Config{AggregateRateBps: capBps, Telemetry: hub}, dataset)
		reps = append(reps, benchReplica{srv: srv, hub: hub, tel: tel})
	}
	dst := r.Server(gridftp.Config{})

	// Replica 0 carries the background pile; wait for it to show up in
	// the live bins the registry's load window reads.
	r.Load(reps[0].srv.Addr(), "dataset.bin", nBg)
	r.WaitFor("background load on replica 0", func() bool { return reps[0].hub.LiveCounter("stripe0").Total() > 0 })

	rrDurs, rrWhere := runFleetArm(t, reps, dst, nil, nJobs, workers, objSize, "rr")

	hub := telemetry.NewHub()
	var frs []fleet.Replica
	for _, r := range reps {
		frs = append(frs, fleet.Replica{Addr: r.srv.Addr(), TelemetryURL: r.tel})
	}
	disp, err := fleet.New(fleet.Config{
		Replicas:       frs,
		CapacityBps:    float64(capBps),
		ScrapeInterval: 200 * time.Millisecond,
		LoadWindow:     2 * time.Second,
		Admission:      true,
		Telemetry:      hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Close()
	disp.Registry().ScrapeNow(context.Background())
	flDurs, flWhere := runFleetArm(t, reps, dst, disp, nJobs, workers, objSize, "fleet")
	fallbacks := hub.Counter("fleet_fallbacks_total", "").Value()

	rrMean, rrSd := meanStddev(rrDurs)
	flMean, flSd := meanStddev(flDurs)
	rrCV, flCV := rrSd/rrMean, flSd/flMean
	rep := fleetReport{
		Benchmark: "fleet placement vs round-robin under uneven replica load " +
			"(3 rate-capped replicas, replica 0 loaded)",
		Notes: "Eq. 2 run forward: the dispatcher subtracts each replica's scraped live load " +
			"from its aggregate capacity and places every job where the predicted effective " +
			"rate is highest, with admission-calendar claims covering the scrape gap. " +
			"Round-robin sends a third of the jobs into the loaded replica's contention.",
		Replicas:       nReplicas,
		CapacityBps:    float64(capBps),
		BackgroundJobs: nBg,
		Arms: []fleetArm{
			{
				Policy: "round-robin", Jobs: nJobs,
				MeanMs: rrMean * 1e3, StddevMs: rrSd * 1e3,
				P99Ms: p99of(rrDurs) * 1e3, CV: rrCV, Placements: rrWhere,
			},
			{
				Policy: "fleet", Jobs: nJobs,
				MeanMs: flMean * 1e3, StddevMs: flSd * 1e3,
				P99Ms: p99of(flDurs) * 1e3, CV: flCV, Placements: flWhere,
				Fallbacks: fallbacks,
			},
		},
		CVReduction:  rrCV / flCV,
		P99Reduction: p99of(rrDurs) / p99of(flDurs),
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("rr: mean %.0fms cv %.2f p99 %.0fms; fleet: mean %.0fms cv %.2f p99 %.0fms (cv %.1fx, p99 %.1fx)",
		rrMean*1e3, rrCV, p99of(rrDurs)*1e3, flMean*1e3, flCV, p99of(flDurs)*1e3,
		rep.CVReduction, rep.P99Reduction)
	// The acceptance bar: load-aware placement at least halves the
	// completion-time spread (or the tail) versus round-robin.
	if rep.CVReduction < 2 && rep.P99Reduction < 2 {
		t.Errorf("fleet placement won only %.2fx on CV and %.2fx on p99; want >= 2x on one",
			rep.CVReduction, rep.P99Reduction)
	}
}
