// Livefleet: demonstrate load-aware placement across a replica fleet —
// the paper's Eq. 2 contention model run forward as a dispatcher.
// Three rate-capped gftpd replicas serve the same dataset; replica 0
// carries a pile of unshaped background transfers. A batch of managed
// jobs dispatched round-robin lands a third of its work behind that
// contention and finishes ragged; the same batch placed by the fleet
// dispatcher — which scrapes each replica's telemetry, subtracts live
// load from capacity, and claims admission-calendar headroom per job —
// steers around the busy replica and finishes tight.
//
//	go run ./examples/livefleet
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"gftpvc/internal/fleet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/xferman"
)

const (
	objSize = 2 << 20
	nJobs   = 12
	capBps  = 160e6 // per-replica aggregate data-plane cap (the model's R)
	nBg     = 6     // background transfers pinned to replica 0
)

type replica struct {
	srv *gridftp.Server
	hub *telemetry.Hub
	tel string
}

func main() {
	r := rig.Main()
	defer r.Close()
	dataset := rig.Objects{"dataset.bin": rig.Payload(17, objSize)}

	var reps []replica
	for i := 0; i < 3; i++ {
		hub, tel := r.Hub(fmt.Sprintf("gftpd-%d", i))
		srv := r.Server(gridftp.Config{AggregateRateBps: capBps, Telemetry: hub}, dataset)
		reps = append(reps, replica{srv: srv, hub: hub, tel: tel})
	}
	dst := r.Server(gridftp.Config{})

	// Pin unshaped background traffic to replica 0: it keeps most of
	// that replica's aggregate cap busy for the whole demo. Wait for it
	// to show up in the live bins the registry's load window reads.
	r.Load(reps[0].srv.Addr(), "dataset.bin", nBg)
	r.WaitFor("background load on replica 0", func() bool { return reps[0].hub.LiveCounter("stripe0").Total() > 0 })

	// Arm 1: naive round-robin — a third of the jobs queue up behind
	// the background pile on replica 0.
	rrDurs, rrWhere := runArm("round-robin", reps, dst, nil)
	report("round-robin", rrDurs, rrWhere)

	// Arm 2: fleet placement — the dispatcher scrapes the replicas'
	// telemetry and sends work where Eq. 2 says the effective rate is
	// highest; admission claims spread bursts placed between scrapes.
	var frs []fleet.Replica
	for _, r := range reps {
		frs = append(frs, fleet.Replica{Addr: r.srv.Addr(), TelemetryURL: r.tel})
	}
	disp, err := fleet.New(fleet.Config{
		Replicas:       frs,
		CapacityBps:    capBps,
		ScrapeInterval: 200 * time.Millisecond,
		LoadWindow:     2 * time.Second,
		Admission:      true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer disp.Close()
	disp.Registry().ScrapeNow(context.Background())
	flDurs, flWhere := runArm("fleet", reps, dst, disp)
	report("fleet", flDurs, flWhere)

	fmt.Println("\nregistry snapshot after the fleet arm:")
	for _, rl := range disp.Registry().Snapshot() {
		fmt.Printf("  %-21s load %6.1f Mbit/s  predicted %6.1f Mbit/s  sessions %d\n",
			rl.Addr, rl.MeasuredBps/1e6, rl.PredictedBps/1e6, rl.Sessions)
	}
}

// runArm moves nJobs copies of the dataset to dst, sourcing each job
// either round-robin across the replicas (disp nil) or wherever the
// fleet dispatcher places it. Returns per-job durations and the
// placement tally.
func runArm(name string, reps []replica, dst *gridftp.Server, disp *fleet.Dispatcher) ([]time.Duration, map[string]int) {
	var opts []xferman.Option
	if disp != nil {
		opts = append(opts, xferman.WithFleet(disp))
	}
	m, err := xferman.New(4, opts...)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	addrOf := make(map[string]string)
	for i, r := range reps {
		addrOf[r.srv.Addr()] = fmt.Sprintf("replica-%d", i)
	}
	ids := make([]xferman.JobID, 0, nJobs)
	starts := make(map[xferman.JobID]time.Time, nJobs)
	for i := 0; i < nJobs; i++ {
		job := xferman.Job{
			Src:     xferman.Endpoint{User: "anonymous", Pass: "demo@"},
			Dst:     xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "demo@"},
			SrcName: "dataset.bin",
			DstName: fmt.Sprintf("%s-%02d.bin", name, i),
			// Third-party transfers are shaped by the replicas' shared
			// aggregate bucket; no per-job rate needed.
			SizeHint: objSize,
		}
		if disp == nil {
			job.Src.Addr = reps[i%len(reps)].srv.Addr()
		}
		id, err := m.Submit(context.Background(), job)
		if err != nil {
			log.Fatal(err)
		}
		starts[id] = time.Now()
		ids = append(ids, id)
	}
	durs := make([]time.Duration, 0, nJobs)
	where := make(map[string]int)
	for _, id := range ids {
		res, err := m.Wait(context.Background(), id)
		if err != nil {
			log.Fatal(err)
		}
		if res.Status != xferman.Succeeded {
			log.Fatalf("%s job failed: %s", name, res.Err)
		}
		durs = append(durs, res.Duration)
		src := res.Replica
		if src == "" {
			src = res.Job.Src.Addr
		}
		where[addrOf[src]]++
	}
	return durs, where
}

// report prints one arm's completion-time spread and placement tally.
func report(name string, durs []time.Duration, where map[string]int) {
	mean, cv := spread(durs)
	fmt.Printf("%-11s %d x %d MiB: mean %8v  spread (CV) %.2f  placements %v\n",
		name, len(durs), objSize>>20, mean.Round(time.Millisecond), cv, where)
}

// spread returns the mean and coefficient of variation of durations.
func spread(durs []time.Duration) (time.Duration, float64) {
	var sum float64
	for _, d := range durs {
		sum += d.Seconds()
	}
	mean := sum / float64(len(durs))
	var ss float64
	for _, d := range durs {
		ss += (d.Seconds() - mean) * (d.Seconds() - mean)
	}
	sd := math.Sqrt(ss / float64(len(durs)))
	return time.Duration(mean * float64(time.Second)), sd / mean
}
