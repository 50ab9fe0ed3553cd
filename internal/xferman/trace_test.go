package xferman

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc/broker"
)

// TestTracingEndToEnd is the acceptance drill for cross-process
// tracing: four hubs play four processes (the transfer manager, both
// GridFTP servers, and oscarsd), linked only by the trace ID carried
// on the wire. One traced job must surface in every process's flight
// recorder, and the stitched /trace/<id> tree must span the processes
// with each span's phases summing exactly to its wall time — the job
// span's being one per stage of the attempt.
func TestTracingEndToEnd(t *testing.T) {
	r := rig.New(t)
	hubX, urlX := r.Hub("xferman")
	hubSrc, _ := r.Hub("gftpd-src")
	hubDst, _ := r.Hub("gftpd-dst")
	hubOsc, _ := r.Hub("oscarsd")

	src := r.Server(gridftp.Config{Telemetry: hubSrc}, rig.Objects{"a.nc": rig.Payload(3, 512<<10)})
	dst := r.Server(gridftp.Config{Telemetry: hubDst})

	ctx := context.Background()
	_, bk := r.ControlPlane(
		oscarsd.Config{ReservableFraction: 0.5, Telemetry: hubOsc},
		broker.Config{
			Gap:        150 * time.Millisecond,
			SetupDelay: 20 * time.Millisecond,
			MinRateBps: 1e9, MaxRateBps: 1e9,
			Telemetry: hubX,
		})

	m, err := New(1, WithTelemetry(hubX), WithBroker(bk), WithTracing())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	id, err := m.Submit(ctx, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "a.nc", DstName: "copy-a.nc",
		Verify: true, SizeHint: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("job: %v (%s)", res.Status, res.Err)
	}
	if res.TraceID == "" {
		t.Fatal("traced job reported no TraceID")
	}

	// The flight recorder: the trace ID must appear in every process's
	// event ring, with the kinds each process is responsible for.
	wantKind := func(hub *telemetry.Hub, process, kind string) {
		t.Helper()
		for _, ev := range hub.Events().ByTrace(res.TraceID) {
			if ev.Kind == kind {
				return
			}
		}
		t.Errorf("%s ring has no %q event for trace %s", process, kind, res.TraceID)
	}
	wantKind(hubX, "xferman", "job_start")
	wantKind(hubX, "xferman", "job_done")
	wantKind(hubX, "xferman", "broker_reserved")
	wantKind(hubX, "xferman", "vc_call")
	wantKind(hubSrc, "gftpd-src", "trid_bound")
	wantKind(hubDst, "gftpd-dst", "trid_bound")
	wantKind(hubOsc, "oscarsd", "reserve")

	// The stitched tree, over live HTTP between the hubs.
	resp, err := http.Get(urlX + "/trace/" + res.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var report telemetry.TraceReport
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if len(report.Processes) != 4 {
		t.Fatalf("stitched report covers %d processes, want 4", len(report.Processes))
	}
	for _, loc := range report.Processes {
		if loc.Err != "" {
			t.Errorf("process %s: peer fetch failed: %s", loc.Process, loc.Err)
		}
	}
	if len(report.Tree) != 1 {
		t.Fatalf("stitched tree has %d roots, want 1 (the job span): %+v", len(report.Tree), report.Tree)
	}
	root := report.Tree[0]
	if root.Process != "xferman" || root.Span.Op != "job" {
		t.Fatalf("root is %s/%s, want xferman/job", root.Process, root.Span.Op)
	}
	// The job span's phases are the stage list: every stage opened one,
	// so the span attributes its wall time to checkout vs size vs
	// transfer vs verify (the walk below checks they sum exactly).
	phases := map[telemetry.Phase]bool{}
	for _, ph := range root.Span.Phases {
		phases[ph.Name] = true
	}
	for _, st := range stages {
		if !phases[st.name] {
			t.Errorf("job span has no %q phase: %+v", st.name, root.Span.Phases)
		}
	}
	procs := map[string]bool{}
	var walk func(n *telemetry.TraceNode)
	walk = func(n *telemetry.TraceNode) {
		procs[n.Process] = true
		var sum float64
		for _, ph := range n.Span.Phases {
			sum += ph.DurationSec
		}
		if math.Abs(sum-n.Span.DurationSec) > 1e-9 {
			t.Errorf("%s/%s: phases sum to %.12f, wall time %.12f",
				n.Process, n.Span.Op, sum, n.Span.DurationSec)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, p := range []string{"xferman", "gftpd-src", "gftpd-dst"} {
		if !procs[p] {
			t.Errorf("stitched tree has no span from %s", p)
		}
	}
}

// TestTracingOffNoWireChange pins the degrade guarantee: a manager
// without WithTracing sends no SITE command at all — the control
// conversation is what it was before tracing existed — and no process
// records a trace.
func TestTracingOffNoWireChange(t *testing.T) {
	r := rig.New(t)
	hubSrv, _ := r.Hub("gftpd")
	src := r.Server(gridftp.Config{Telemetry: hubSrv}, rig.Objects{"a.nc": rig.Payload(3, 64<<10)})
	dst := r.Server(gridftp.Config{Telemetry: hubSrv})

	hubX, _ := r.Hub("xferman")
	m, err := New(1, WithTelemetry(hubX))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx := context.Background()
	id, err := m.Submit(ctx, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "a.nc", DstName: "copy-a.nc", Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(ctx, id)
	if err != nil || res.Status != Succeeded {
		t.Fatalf("job: %+v, %v", res, err)
	}
	if res.TraceID != "" {
		t.Fatalf("untraced job reported TraceID %q", res.TraceID)
	}
	if n := hubSrv.Counter("gridftp_server_commands_total",
		"Control-channel commands dispatched, by verb.",
		telemetry.L("verb", "site")).Value(); n != 0 {
		t.Fatalf("servers dispatched %d SITE commands with tracing off, want 0", n)
	}
	for _, ev := range hubSrv.Events().Snapshot() {
		if ev.Kind == "trid_bound" {
			t.Fatalf("server bound a trace with tracing off: %+v", ev)
		}
	}
}
