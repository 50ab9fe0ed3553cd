// Tracing-overhead benchmark: the same pooled transfer workload run
// with tracing off and on, reporting per-job latency percentiles and
// the tracing overhead on the mean. Tracing adds one SITE TRID round
// trip per checked-out control channel plus event-ring appends and
// span tagging; the acceptance bar is <= 5% on pooled per-job latency.
//
// Gated on TRACE_OUT so plain `go test ./...` stays fast:
//
//	TRACE_OUT=BENCH_8.json go test -run TestTraceOverheadReport -timeout 10m .
package gftpvc_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"

	"gftpvc/internal/connpool"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/xferman"
)

type traceBenchArm struct {
	Tracing      bool    `json:"tracing"`
	Jobs         int     `json:"jobs"`
	PerJobP50Ms  float64 `json:"per_job_p50_ms"`
	PerJobP99Ms  float64 `json:"per_job_p99_ms"`
	PerJobMeanMs float64 `json:"per_job_mean_ms"`
}

type traceBenchReport struct {
	Benchmark   string          `json:"benchmark"`
	Notes       string          `json:"notes"`
	Arms        []traceBenchArm `json:"arms"`
	OverheadPct float64         `json:"overhead_pct"`
}

// runTraceArm pushes jobs transfers through a pooled manager and
// returns each job's wall time in seconds. Both arms share the server
// pair and the client hub, so the only variable is the manager's
// tracing switch.
func runTraceArm(t *testing.T, hub *telemetry.Hub, src, dst *gridftp.Server, jobs, workers int, tracing bool) []float64 {
	t.Helper()
	pool := connpool.New(connpool.Config{
		MaxIdlePerEndpoint: workers,
		Telemetry:          hub,
		Opts: func(string) []gridftp.Option {
			return []gridftp.Option{gridftp.WithTelemetry(hub)}
		},
	})
	defer pool.Close()
	opts := []xferman.Option{xferman.WithTelemetry(hub), xferman.WithPool(pool)}
	if tracing {
		opts = append(opts, xferman.WithTracing())
	}
	m, err := xferman.New(workers, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	srcEP := xferman.Endpoint{Addr: src.Addr(), User: "anonymous", Pass: "bench@"}
	dstEP := xferman.Endpoint{Addr: dst.Addr(), User: "anonymous", Pass: "bench@"}
	var ids []xferman.JobID
	for i := 0; i < jobs; i++ {
		id, err := m.Submit(ctx, xferman.Job{
			Src: srcEP, Dst: dstEP,
			SrcName: "bench.nc",
			DstName: fmt.Sprintf("out/%c/bench-%d.nc", 'a'+byte(i%8), i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	durs := make([]float64, 0, jobs)
	for _, id := range ids {
		res, err := m.Wait(ctx, id)
		if err != nil || res.Status != xferman.Succeeded {
			t.Fatalf("job %d: %+v, %v", id, res, err)
		}
		durs = append(durs, res.Duration.Seconds())
	}
	return durs
}

func armStats(tracing bool, durs []float64) traceBenchArm {
	s := append([]float64(nil), durs...)
	sort.Float64s(s)
	var sum float64
	for _, d := range s {
		sum += d
	}
	pick := func(p float64) float64 { return s[int(p*float64(len(s)-1))] * 1e3 }
	return traceBenchArm{
		Tracing:      tracing,
		Jobs:         len(s),
		PerJobP50Ms:  pick(0.50),
		PerJobP99Ms:  pick(0.99),
		PerJobMeanMs: sum / float64(len(s)) * 1e3,
	}
}

// TestTraceOverheadReport runs the tracing-on/off A/B and writes the
// TRACE_OUT artifact; skipped without the env var.
func TestTraceOverheadReport(t *testing.T) {
	out := os.Getenv("TRACE_OUT")
	if out == "" {
		t.Skip("set TRACE_OUT=BENCH_8.json to run the tracing overhead A/B")
	}
	const (
		jobs    = 300
		workers = 4
	)
	r := rig.New(t)
	src := r.Server(gridftp.Config{}, rig.Objects{"bench.nc": make([]byte, 256<<10)})
	dst := r.Server(gridftp.Config{})
	hub, _ := r.Hub("bench")

	// Warm both arms (pool fill, listener setup, page cache) before
	// measuring, then interleave off/on to spread machine noise evenly.
	runTraceArm(t, hub, src, dst, 50, workers, false)
	runTraceArm(t, hub, src, dst, 50, workers, true)
	var off, on []float64
	for i := 0; i < 3; i++ {
		off = append(off, runTraceArm(t, hub, src, dst, jobs/3, workers, false)...)
		on = append(on, runTraceArm(t, hub, src, dst, jobs/3, workers, true)...)
	}
	offArm, onArm := armStats(false, off), armStats(true, on)
	overhead := (onArm.PerJobMeanMs - offArm.PerJobMeanMs) / offArm.PerJobMeanMs * 100

	rep := traceBenchReport{
		Benchmark: "trace-overhead",
		Notes: "pooled per-job latency, tracing off vs on (SITE TRID per checkout, " +
			"event-ring appends, span tagging, timeline bins); interleaved batches, shared servers",
		Arms:        []traceBenchArm{offArm, onArm},
		OverheadPct: overhead,
	}
	t.Logf("off: p50 %.2fms p99 %.2fms mean %.2fms", offArm.PerJobP50Ms, offArm.PerJobP99Ms, offArm.PerJobMeanMs)
	t.Logf("on:  p50 %.2fms p99 %.2fms mean %.2fms", onArm.PerJobP50Ms, onArm.PerJobP99Ms, onArm.PerJobMeanMs)
	t.Logf("tracing overhead on mean per-job latency: %.2f%%", overhead)
	if overhead > 5 {
		t.Errorf("tracing overhead %.2f%% exceeds the 5%% budget", overhead)
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
}
