package xferman

import (
	"context"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/rig"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc/broker"
)

// shapedEnough asserts a transfer of n bytes at rateBps took at least
// half its ideal duration — loose enough to never flake, tight enough
// that an unshaped loopback transfer cannot pass.
func shapedEnough(t *testing.T, what string, n int64, rateBps int64, elapsed time.Duration) {
	t.Helper()
	ideal := time.Duration(float64(n) * 8 / float64(rateBps) * float64(time.Second))
	if elapsed < ideal/2 {
		t.Fatalf("%s: %d bytes at %d bps took %v, want >= %v (shaping not engaged?)",
			what, n, rateBps, elapsed, ideal/2)
	}
}

func runJob(t *testing.T, m *Manager, job Job) Result {
	t.Helper()
	id, err := m.Submit(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("job failed: %s", res.Err)
	}
	return res
}

// TestClassRateShapesJob: the class rate table shapes a background
// streaming job, the default bulk class runs unshaped, and a job's own
// RateBps pin wins over its class rate.
func TestClassRateShapesJob(t *testing.T) {
	r := rig.New(t)
	const classRate = 160e6 // 20 MB/s
	src := r.Server(gridftp.Config{}, rig.Objects{"data.bin": rig.Payload(3, 2<<20)})
	dst := r.Server(gridftp.Config{})
	hub, _ := r.Hub("xferman")
	m, err := New(2, WithTelemetry(hub), WithClassRate(ClassBackground, classRate))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	base := Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin", Stream: true,
	}

	bg := base
	bg.Class = ClassBackground
	start := time.Now()
	res := runJob(t, m, bg)
	shapedEnough(t, "background job", 2<<20, classRate, time.Since(start))
	if res.ShapedRateBps != classRate {
		t.Fatalf("ShapedRateBps = %d, want %d", res.ShapedRateBps, int64(classRate))
	}

	// Default (bulk) class: no class rate configured, runs unshaped.
	if res := runJob(t, m, base); res.ShapedRateBps != 0 {
		t.Fatalf("bulk job ShapedRateBps = %d, want 0", res.ShapedRateBps)
	}

	// The job's own pin wins over its class.
	pinned := bg
	pinned.DstName = "copy2.bin"
	pinned.RateBps = 2 * classRate
	if res := runJob(t, m, pinned); res.ShapedRateBps != 2*classRate {
		t.Fatalf("pinned ShapedRateBps = %d, want %d", res.ShapedRateBps, int64(2*classRate))
	}

	if n := hub.Counter("xferman_paced_jobs_total",
		"Jobs whose data plane was rate-shaped, by QoS class.",
		telemetry.L("class", "background")).Value(); n != 2 {
		t.Fatalf("xferman_paced_jobs_total(background) = %d, want 2", n)
	}
}

// TestThirdPartyRateShapesSource: a third-party job (the manager never
// touches the data) is shaped by asking the source server to pace its
// session via SITE RATE.
func TestThirdPartyRateShapesSource(t *testing.T) {
	r := rig.New(t)
	const rate = 160e6
	src := r.Server(gridftp.Config{}, rig.Objects{"data.bin": rig.Payload(3, 2<<20)})
	dst := r.Server(gridftp.Config{})
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	start := time.Now()
	res := runJob(t, m, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		RateBps: rate, Verify: true,
	})
	shapedEnough(t, "third-party job", 2<<20, rate, time.Since(start))
	if res.ShapedRateBps != rate {
		t.Fatalf("ShapedRateBps = %d, want %d", res.ShapedRateBps, int64(rate))
	}
}

// TestVCJobShapedToReservedRate: a job dispatched onto a reserved
// circuit is automatically paced to the broker's reserved rate — the
// reservation becomes a wire-level fact, not an advisory booking.
func TestVCJobShapedToReservedRate(t *testing.T) {
	r := rig.New(t)
	const reserved = 80e6 // 10 MB/s; Min == Max pins the clamp
	_, bk := r.ControlPlane(oscarsd.Config{ReservableFraction: 0.8}, broker.Config{
		Gap:             150 * time.Millisecond,
		SetupDelay:      10 * time.Millisecond,
		OverheadFactor:  2,
		MinRateBps:      reserved,
		MaxRateBps:      reserved,
		HoldSlack:       time.Second,
		DecisionTimeout: time.Second,
	})

	src := r.Server(gridftp.Config{}, rig.Objects{"data.bin": rig.Payload(3, 2<<20)})
	dst := r.Server(gridftp.Config{})
	m, err := New(1, WithBroker(bk))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	start := time.Now()
	res := runJob(t, m, Job{
		Src: ep(src), Dst: ep(dst),
		SrcName: "data.bin", DstName: "copy.bin",
		Stream:   true,
		SizeHint: 256 << 20, // force a circuit; the actual object is 2 MiB
	})
	elapsed := time.Since(start)
	if res.Circuit.Service != broker.ServiceVC {
		t.Fatalf("job not dispatched onto a circuit: %+v", res.Circuit)
	}
	if res.Circuit.RateBps != reserved {
		t.Fatalf("disposition RateBps = %v, want %v", res.Circuit.RateBps, float64(reserved))
	}
	if res.ShapedRateBps != reserved {
		t.Fatalf("ShapedRateBps = %d, want %d", res.ShapedRateBps, int64(reserved))
	}
	shapedEnough(t, "VC job", 2<<20, reserved, elapsed)
}

// TestRateForPrecedence pins the shaping precedence: the job's own pin,
// then the circuit's reserved rate, then the class table, else unshaped.
func TestRateForPrecedence(t *testing.T) {
	m, _ := New(1, WithClassRate(ClassBackground, 30))
	defer m.Close()
	vc := broker.Disposition{Service: broker.ServiceVC, RateBps: 20}
	ip := broker.Disposition{Service: broker.ServiceIP}
	for _, tc := range []struct {
		name string
		job  Job
		disp broker.Disposition
		want int64
	}{
		{"job pin beats circuit and class", Job{RateBps: 10, Class: ClassBackground}, vc, 10},
		{"circuit rate beats class", Job{Class: ClassBackground}, vc, 20},
		{"class rate when on IP", Job{Class: ClassBackground}, ip, 30},
		{"an IP disposition's rate is not a reservation", Job{Class: ClassBulk},
			broker.Disposition{Service: broker.ServiceIP, RateBps: 20}, 0},
		{"a circuit without a rate falls through to the class", Job{Class: ClassBackground},
			broker.Disposition{Service: broker.ServiceVC}, 30},
		{"unshaped by default", Job{Class: ClassBulk}, ip, 0},
	} {
		if got := m.rateFor(tc.job, tc.disp); got != tc.want {
			t.Errorf("%s: rateFor = %d, want %d", tc.name, got, tc.want)
		}
	}
}
