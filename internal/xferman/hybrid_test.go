package xferman

import (
	"context"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/rig"
	"gftpvc/internal/vc"
	"gftpvc/internal/vc/broker"
)

// TestHybridDispatchEndToEnd is the acceptance drill for the hybrid
// control plane, against live gftpd and oscarsd daemons: one session
// rides a reserved circuit, a second falls back to IP after an
// admission reject, and both dispositions are visible on each job's
// Result and on the telemetry exposition. Transfers succeed either way.
func TestHybridDispatchEndToEnd(t *testing.T) {
	r := rig.New(t)
	hub, _ := r.Hub("hybrid")

	objects := rig.Objects{}
	for _, n := range []string{"a.nc", "b.nc", "c.nc"} {
		objects[n] = rig.Payload(3, 512<<10)
	}
	src := r.Server(gridftp.Config{Telemetry: hub}, objects)
	dst := r.Server(gridftp.Config{Telemetry: hub})

	ctx := context.Background()
	client, bk := r.ControlPlane(
		oscarsd.Config{ReservableFraction: 0.5, Telemetry: hub},
		broker.Config{
			Gap:        150 * time.Millisecond,
			SetupDelay: 50 * time.Millisecond,
			MinRateBps: 1e9, MaxRateBps: 1e9,
			Telemetry: hub,
		})

	m, err := New(1, WithTelemetry(hub), WithBroker(bk))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	run := func(srcName, dstName string) Result {
		t.Helper()
		id, err := m.Submit(ctx, Job{
			Src: ep(src), Dst: ep(dst),
			SrcName: srcName, DstName: dstName,
			Verify: true, SizeHint: 256 << 20, // bulk enough to want a circuit
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Succeeded {
			t.Fatalf("%s: %v (%s)", srcName, res.Status, res.Err)
		}
		return res
	}

	// Session 1: reservable bandwidth is free — jobs ride a circuit.
	r1 := run("a.nc", "copy-a.nc")
	if r1.Circuit.Service != broker.ServiceVC || r1.Circuit.CircuitID == 0 {
		t.Fatalf("session 1 job 1 disposition %+v, want VC", r1.Circuit)
	}
	r2 := run("b.nc", "copy-b.nc")
	if r2.Circuit.Service != broker.ServiceVC || r2.Circuit.CircuitID != r1.Circuit.CircuitID {
		t.Fatalf("session 1 job 2 disposition %+v, want circuit %d",
			r2.Circuit, r1.Circuit.CircuitID)
	}

	// Close the session, then saturate the path so admission rejects.
	r.WaitFor("session 1 to expire", func() bool { return bk.Sessions() == 0 })
	now, err := client.Now(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hog, err := client.Reserve(ctx, vc.ReserveRequest{
		Src: rig.SrcNode, Dst: rig.DstNode,
		RateBps: 4.5e9, Start: now + 1, End: now + 3600,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Cancel(ctx, hog.ID)

	// Session 2: the circuit ask is rejected; the transfer still
	// succeeds, over IP, with the reject on the disposition.
	r3 := run("c.nc", "copy-c.nc")
	if r3.Circuit.Service != broker.ServiceIP ||
		!strings.Contains(r3.Circuit.Fallback, "admission rejected") {
		t.Fatalf("session 2 disposition %+v, want IP admission-reject fallback", r3.Circuit)
	}

	// Both dispositions are on /metrics too.
	var dump strings.Builder
	hub.Registry().WriteProm(&dump)
	out := dump.String()
	for _, want := range []string{
		`vc_broker_jobs_total{service="vc"} 2`,
		`vc_broker_jobs_total{service="ip"} 1`,
		`vc_broker_reserved_total 1`,
		`vc_broker_fallback_total{reason="rejected"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
