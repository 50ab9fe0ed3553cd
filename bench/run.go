package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gftpvc/internal/telemetry"
)

// outDir receives trace-<workload>.json, relative to the directory the
// benchmark runs in (bench/ under `go run -C bench`).
const outDir = "out"

// runResult is one run of one workload in a fresh process.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Ops      int    `json:"ops"`
	Failed   int    `json:"failed"`
	// Errors holds the first few failures in full.
	Errors []string `json:"errors,omitempty"`
	// Tail names the percentile behind op_tail_ms ("p95", "p99").
	Tail    string             `json:"tail,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Proc    map[string]float64 `json:"proc,omitempty"`
	Trace   map[string]float64 `json:"trace,omitempty"`
	Digests []string           `json:"digests,omitempty"`
}

const maxErrors = 5

// runWorkload sets the workload up, warms it, and — unless setupOnly —
// runs ops operations closed-loop and checks them. It is only ever
// called in a child process, so heap, GC state, usage logs and span
// rings start empty.
func runWorkload(w *workload, seed int64, ops int, traced, setupOnly bool) (runResult, error) {
	res := runResult{Workload: w.name, Seed: seed, Ops: ops, Metrics: map[string]float64{}}
	ctx := context.Background()
	var t *tracer
	if traced {
		t = newTracer()
	}
	start := time.Now()
	r, err := w.setup(seed, t)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer r.close()
	for i := 0; i < w.warmup; i++ {
		if err := r.op(ctx, -1-i); err != nil {
			return res, fmt.Errorf("%s: warm-up: %w", w.name, err)
		}
	}
	if w.live {
		// (exhibits has nothing to set up or warm.)
		res.Metrics["setup_s"] = time.Since(start).Seconds()
	}
	if setupOnly {
		return res, nil
	}

	r.begin()
	runtime.GC()
	lat := make([]float64, ops)
	var (
		next   atomic.Int64
		mu     sync.Mutex
		failed int
		wg     sync.WaitGroup
	)
	before := readUsage()
	for c := 0; c < w.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				t0 := time.Now()
				err := r.op(ctx, i)
				lat[i] = ms(time.Since(t0))
				if err != nil {
					mu.Lock()
					failed++
					if len(res.Errors) < maxErrors {
						res.Errors = append(res.Errors, fmt.Sprintf("op %d: %v", i, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	sec := before.until(readUsage())
	if err := r.verify(ops); err != nil {
		// The run's bytes do not add up, so no op of it can be trusted.
		failed = ops
		res.Errors = append(res.Errors, err.Error())
	}
	res.Failed = failed
	n := float64(ops)

	res.Metrics["cpu_user_ms_per_op"] = ms(sec.user) / n
	res.Metrics["alloc_MB_per_op"] = float64(sec.allocBytes) / 1e6 / n
	res.Proc = map[string]float64{
		"proc.wall_s":      sec.wall.Seconds(),
		"proc.gc_count":    float64(sec.gcCount),
		"proc.gc_pause_ms": ms(sec.gcPause),
		"proc.rss_peak_MB": float64(sec.maxRSSKiB) * 1024 / 1e6,
		// On exhibits this is the only place system time appears: it and
		// wall time swing with the sandbox's page-fault cost there, so
		// they are process detail, not end-to-end metrics (see README).
		"proc.cpu_sys_ms_per_op": ms(sec.sys) / n,
	}
	if w.live {
		sorted := sortedCopy(lat)
		tail := tailPercentile(ops)
		res.Tail = fmt.Sprintf("p%g", tail)
		res.Metrics["goodput_MBps"] = float64(r.payload()) / 1e6 / sec.wall.Seconds()
		res.Metrics["op_p50_ms"] = quantile(sorted, 0.5)
		res.Metrics["op_tail_ms"] = quantile(sorted, tail/100)
		res.Metrics["cpu_sys_ms_per_op"] = ms(sec.sys) / n
	}
	if e, ok := r.(*exhibits); ok {
		res.Digests = e.digests
	}
	if t != nil {
		if err := summarizeTrace(&res, t, r); err != nil {
			return res, err
		}
	}
	return res, nil
}

// hubber is a runner whose servers have span rings to read.
type hubber interface{ serverHubs() []*telemetry.Hub }

func (r *bulkRetr) serverHubs() []*telemetry.Hub   { return []*telemetry.Hub{r.srv.hub} }
func (r *bulkStor) serverHubs() []*telemetry.Hub   { return []*telemetry.Hub{r.srv.hub} }
func (r *smallFiles) serverHubs() []*telemetry.Hub { return []*telemetry.Hub{r.src.hub, r.dst.hub} }

// summarizeTrace turns the recorded spans into the trace.* figures and
// writes trace-<workload>.json.
func summarizeTrace(res *runResult, t *tracer, r runner) error {
	t.mu.Lock()
	ops, busy, spans := t.ops, t.busy, append([]span(nil), t.spans...)
	t.mu.Unlock()
	if n := misfits(spans); n > 0 {
		return fmt.Errorf("trace: %d child spans do not fit inside their op span", n)
	}
	share, residual := shares(ops, busy)
	sum := map[string]float64{"trace.engine_residual_share": residual}
	for c, name := range categoryNames {
		sum["trace."+name+"_share"] = share[c]
	}

	// Data-connection calls per MiB, over the connections opened since
	// the first timed op began (warm-up connections closed before it).
	var first int64
	if len(ops) > 0 {
		first = ops[0].start
		for _, o := range ops {
			if o.start < first {
				first = o.start
			}
		}
	}
	var calls int64
	for _, s := range spans {
		// Count each data connection once: from the accepting side.
		if s.Name == "conn.data.server" && s.Start >= first {
			calls += s.Counters["read_calls"] + s.Counters["write_calls"]
		}
	}
	if mib := float64(r.payload()) / (1 << 20); mib > 0 {
		sum["trace.data_conn_calls_per_MiB"] = float64(calls) / mib
	}

	// Server-side phase times from the hubs' own span rings (the rings
	// keep the last 512 spans, which is the sample).
	phase := map[telemetry.Phase][]float64{}
	if h, ok := r.(hubber); ok {
		for _, hub := range h.serverHubs() {
			for _, s := range hub.Spans().Snapshot() {
				if s.Op != "retr" && s.Op != "stor" {
					continue
				}
				for _, p := range s.Phases {
					phase[p.Name] = append(phase[p.Name], p.DurationSec*1e3)
				}
			}
		}
	}
	for _, p := range []telemetry.Phase{telemetry.PhaseSetup, telemetry.PhaseStream, telemetry.PhaseTeardown} {
		if len(phase[p]) > 0 {
			sum["trace.server_phase."+string(p)+"_ms"] = median(phase[p])
		}
	}
	res.Trace = sum

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return t.write(filepath.Join(outDir, "trace-"+res.Workload+".json"), traceFile{
		Schema: schemaVersion, Workload: res.Workload, Seed: res.Seed, Ops: res.Ops, Summary: sum,
	})
}
