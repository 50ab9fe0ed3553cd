// Paced-transfer benchmark: the live A/B behind the pacing layer's
// claim — that enforcing a rate on the data plane trades peak speed for
// predictability (the paper's Figs 7-8 story, where circuit transfers
// show far lower throughput variance than best-effort IP) — plus a VC
// arm checking that an xferman job dispatched onto a reserved circuit
// actually runs at the broker's reserved rate (Eq. 2 only predicts
// transfer time if the reservation is enforced).
//
// Arm A/B: 8 concurrent streaming RETRs with staggered starts, unshaped
// vs shaped to a fixed per-transfer rate. Staggering varies the
// instantaneous contention, so unshaped per-transfer durations spread
// with whatever share of the host each transfer happened to get, while
// shaped transfers all take the deterministic paced duration.
//
// Gated on PACED_OUT so plain `go test ./...` stays fast:
//
//	PACED_OUT=BENCH_9.json go test -run TestPacedReport -timeout 10m .
package gftpvc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/rig"
	"gftpvc/internal/vc/broker"
	"gftpvc/internal/xferman"
)

type pacedArm struct {
	Shaped    bool    `json:"shaped"`
	RateBps   int64   `json:"rate_bps,omitempty"`
	Transfers int     `json:"transfers"`
	MeanMs    float64 `json:"mean_ms"`
	StddevMs  float64 `json:"stddev_ms"`
	P99Ms     float64 `json:"p99_ms"`
	CV        float64 `json:"cv"`
}

type pacedVCArm struct {
	ReservedRateBps float64 `json:"reserved_rate_bps"`
	MeasuredRateBps float64 `json:"measured_rate_bps"`
	ErrorPct        float64 `json:"error_pct"`
	SetupWaitMs     float64 `json:"setup_wait_ms"`
}

type pacedReport struct {
	Benchmark   string     `json:"benchmark"`
	Notes       string     `json:"notes"`
	Arms        []pacedArm `json:"arms"`
	CVReduction float64    `json:"cv_reduction_x"`
	VC          pacedVCArm `json:"vc_job"`
}

// runPacedArm runs nConc concurrent streaming RETRs of obj with
// staggered starts, returning each transfer's wall seconds.
func runPacedArm(t *testing.T, r *rig.Rig, addr string, nConc int, size int, opts ...gridftp.Option) []float64 {
	t.Helper()
	durs := make([]float64, nConc)
	var wg sync.WaitGroup
	for i := 0; i < nConc; i++ {
		c := r.Login(addr)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 30 * time.Millisecond)
			start := time.Now()
			stats, err := c.RetrTo(context.Background(), "dataset.bin", io.Discard, opts...)
			if err != nil {
				t.Error(err)
				return
			}
			if stats.Bytes != int64(size) {
				t.Errorf("short transfer: %d of %d bytes", stats.Bytes, size)
			}
			durs[i] = time.Since(start).Seconds()
		}(i)
	}
	wg.Wait()
	return durs
}

func meanStddev(vals []float64) (mean, sd float64) {
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		sd += (v - mean) * (v - mean)
	}
	return mean, math.Sqrt(sd / float64(len(vals)))
}

func p99of(vals []float64) float64 {
	max := vals[0]
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	return max // N=8: p99 is the max
}

func TestPacedReport(t *testing.T) {
	outPath := os.Getenv("PACED_OUT")
	if outPath == "" {
		t.Skip("set PACED_OUT=<file> to run the pacing benchmark")
	}
	const (
		nConc   = 8
		objSize = 4 << 20
		rate    = int64(96e6) // 12 MB/s => ~0.35s per 4 MiB transfer
	)
	r := rig.New(t)
	srv := r.Server(gridftp.Config{}, rig.Objects{"dataset.bin": rig.Payload(17, objSize)})

	rep := pacedReport{
		Benchmark: "paced_vs_unshaped_live",
		Notes: fmt.Sprintf("%d concurrent streaming RETRs of %d MiB, staggered starts, one server; "+
			"shaped arm paced to %d bps per transfer (client bucket + SITE RATE)", nConc, objSize>>20, rate),
	}
	var cvs [2]float64
	for i, arm := range []struct {
		shaped bool
		opts   []gridftp.Option
	}{
		{false, nil},
		{true, []gridftp.Option{gridftp.WithRate(rate)}},
	} {
		durs := runPacedArm(t, r, srv.Addr(), nConc, objSize, arm.opts...)
		if t.Failed() {
			t.Fatal("transfer arm failed")
		}
		mean, sd := meanStddev(durs)
		a := pacedArm{
			Shaped: arm.shaped, Transfers: nConc,
			MeanMs: mean * 1e3, StddevMs: sd * 1e3, P99Ms: p99of(durs) * 1e3,
			CV: sd / mean,
		}
		if arm.shaped {
			a.RateBps = rate
		}
		cvs[i] = a.CV
		rep.Arms = append(rep.Arms, a)
	}
	rep.CVReduction = cvs[0] / cvs[1]
	t.Logf("unshaped CV %.4f, shaped CV %.4f (%.1fx reduction)", cvs[0], cvs[1], rep.CVReduction)
	if rep.CVReduction < 3 {
		t.Errorf("shaped CV must be >= 3x lower than unshaped, got %.2fx", rep.CVReduction)
	}

	rep.VC = runPacedVCArm(t, r)

	f, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", outPath)
}

// runPacedVCArm dispatches one xferman streaming job onto a reserved
// circuit with a pinned reservation rate and checks the job actually
// ran at it.
func runPacedVCArm(t *testing.T, r *rig.Rig) pacedVCArm {
	t.Helper()
	const reserved = 64e6 // Min == Max pins the broker's reservation
	const objSize = 32 << 20
	_, bk := r.ControlPlane(oscarsd.Config{ReservableFraction: 0.8}, broker.Config{
		Gap:             200 * time.Millisecond,
		SetupDelay:      10 * time.Millisecond,
		OverheadFactor:  2,
		MinRateBps:      reserved,
		MaxRateBps:      reserved,
		HoldSlack:       5 * time.Second,
		DecisionTimeout: 5 * time.Second,
	})
	src := r.Server(gridftp.Config{}, rig.Objects{"dataset.bin": rig.Payload(23, objSize)})
	dst := r.Server(gridftp.Config{})

	m, err := xferman.New(1, xferman.WithBroker(bk))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	id, err := m.Submit(context.Background(), xferman.Job{
		Src:     xferman.Endpoint{Addr: src.Addr(), User: "anonymous", Pass: "bench@"},
		Dst:     xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "bench@"},
		SrcName: "dataset.bin", DstName: "copy.bin",
		Stream:   true,
		SizeHint: objSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != xferman.Succeeded {
		t.Fatalf("VC job failed: %s", res.Err)
	}
	if res.Circuit.Service != broker.ServiceVC {
		t.Fatalf("job not dispatched onto a circuit: %+v", res.Circuit)
	}
	if res.ShapedRateBps != int64(reserved) {
		t.Fatalf("ShapedRateBps = %d, want %d", res.ShapedRateBps, int64(reserved))
	}
	// Measured rate over the transfer itself: job duration minus the
	// circuit setup wait the disposition reports.
	xfer := res.Duration - res.Circuit.SetupWait
	measured := float64(objSize) * 8 / xfer.Seconds()
	errPct := 100 * math.Abs(measured-reserved) / reserved
	t.Logf("VC job: reserved %.0f bps, measured %.0f bps (%.1f%% off, setup wait %v)",
		float64(reserved), measured, errPct, res.Circuit.SetupWait)
	if errPct > 10 {
		t.Errorf("measured rate %.0f bps is %.1f%% off the reserved %.0f bps (want <= 10%%)",
			measured, errPct, float64(reserved))
	}
	return pacedVCArm{
		ReservedRateBps: reserved,
		MeasuredRateBps: measured,
		ErrorPct:        errPct,
		SetupWaitMs:     float64(res.Circuit.SetupWait.Milliseconds()),
	}
}
