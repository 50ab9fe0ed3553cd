package netsim

import (
	"math"
	"testing"

	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// line builds a 3-node chain a-b-c with the given capacity.
func line(t *testing.T, capBps float64) (*topo.Topology, topo.Path) {
	t.Helper()
	tp := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c"} {
		if _, err := tp.AddNode(id, topo.Host); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddDuplex("a", "b", capBps, 0.001); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddDuplex("b", "c", capBps, 0.001); err != nil {
		t.Fatal(err)
	}
	p, err := tp.ShortestPath("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	return tp, p
}

func TestSingleFlowFullCapacity(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9) // 1 Gbps
	nw := New(eng, tp)
	var doneAt simclock.Time
	f, err := nw.StartFlow(path, 125e6, FlowOptions{ // 125 MB = 1 Gbit
		OnDone: func(_ *Flow, at simclock.Time) { doneAt = at },
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.rate != 1e9 {
		t.Errorf("rate = %v, want 1e9", f.rate)
	}
	eng.Run()
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if math.Abs(float64(doneAt)-1.0) > 1e-6 {
		t.Errorf("completed at %v, want 1s", doneAt)
	}
	if math.Abs(f.ThroughputBps()-1e9) > 1 {
		t.Errorf("throughput = %v, want 1e9", f.ThroughputBps())
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	f1, _ := nw.StartFlow(path, 125e6, FlowOptions{})
	f2, _ := nw.StartFlow(path, 125e6, FlowOptions{})
	if f1.rate != 5e8 || f2.rate != 5e8 {
		t.Errorf("rates = %v, %v; want 5e8 each", f1.rate, f2.rate)
	}
	eng.Run()
	// Both finish at 2s (each got half rate throughout).
	if math.Abs(float64(f1.End())-2.0) > 1e-6 || math.Abs(float64(f2.End())-2.0) > 1e-6 {
		t.Errorf("ends = %v, %v; want 2s", f1.End(), f2.End())
	}
}

func TestRateCapRespected(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	f1, _ := nw.StartFlow(path, 125e6, FlowOptions{RateCapBps: 2e8})
	f2, _ := nw.StartFlow(path, 125e6, FlowOptions{})
	if f1.rate != 2e8 {
		t.Errorf("capped flow rate = %v, want 2e8", f1.rate)
	}
	// Max-min gives the uncapped flow the rest.
	if math.Abs(f2.rate-8e8) > 1 {
		t.Errorf("uncapped flow rate = %v, want 8e8", f2.rate)
	}
	eng.Run()
}

func TestGuaranteedFlowPriority(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	vc, _ := nw.StartFlow(path, 1e12, FlowOptions{GuaranteedBps: 7e8})
	be, _ := nw.StartFlow(path, 1e12, FlowOptions{})
	if vc.rate != 7e8 {
		t.Errorf("VC rate = %v, want 7e8", vc.rate)
	}
	if math.Abs(be.rate-3e8) > 1 {
		t.Errorf("best-effort rate = %v, want 3e8", be.rate)
	}
}

func TestFlowRateRisesWhenCompetitorFinishes(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	small, _ := nw.StartFlow(path, 62.5e6, FlowOptions{}) // 0.5 Gbit
	big, _ := nw.StartFlow(path, 250e6, FlowOptions{})    // 2 Gbit
	_ = small
	eng.Run()
	// small: 0.5 Gbit at 0.5 Gbps -> done at t=1. big then runs at 1 Gbps:
	// transferred 0.5 Gbit by t=1, remaining 1.5 Gbit -> done at t=2.5.
	if math.Abs(float64(big.End())-2.5) > 1e-6 {
		t.Errorf("big flow end = %v, want 2.5", big.End())
	}
	// Average throughput 2 Gbit / 2.5 s = 0.8 Gbps.
	if math.Abs(big.ThroughputBps()-8e8) > 1e3 {
		t.Errorf("big throughput = %v, want 8e8", big.ThroughputBps())
	}
}

func TestBackgroundFlowAndStop(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	bg, err := nw.StartFlow(path, math.Inf(1), FlowOptions{RateCapBps: 4e8})
	if err != nil {
		t.Fatal(err)
	}
	fg, _ := nw.StartFlow(path, 75e6, FlowOptions{}) // 0.6 Gbit at 0.6 Gbps -> 1s
	if math.Abs(fg.rate-6e8) > 1 {
		t.Errorf("fg rate = %v, want 6e8", fg.rate)
	}
	eng.Run()
	if !fg.Done() {
		t.Fatal("foreground flow did not finish")
	}
	if bg.Done() {
		t.Fatal("background flow should not finish on its own")
	}
	if err := nw.stopFlow(bg); err != nil {
		t.Fatal(err)
	}
	if len(nw.flows) != 0 {
		t.Errorf("active flows = %d, want 0", len(nw.flows))
	}
	if err := nw.stopFlow(bg); err == nil {
		t.Error("double stopFlow should fail")
	}
}

func TestLinkByteAccounting(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	nw.StartFlow(path, 125e6, FlowOptions{})
	eng.Run()
	for _, l := range path {
		b, err := nw.LinkBytes(l.ID)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(b-125e6) > 1 {
			t.Errorf("link %s bytes = %v, want 125e6", l.ID, b)
		}
	}
	// Reverse-direction links carried nothing.
	rev, _ := tp.ShortestPath("c", "a")
	for _, l := range rev {
		if b, _ := nw.LinkBytes(l.ID); b != 0 {
			t.Errorf("reverse link %s bytes = %v, want 0", l.ID, b)
		}
	}
	if _, err := nw.LinkBytes("nope"); err == nil {
		t.Error("unknown link should fail")
	}
}

func TestLinkBytesMidFlow(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	nw.StartFlow(path, 125e6, FlowOptions{})
	eng.RunUntil(0.5)
	b, _ := nw.LinkBytes(path[0].ID)
	if math.Abs(b-62.5e6) > 1 {
		t.Errorf("mid-flow bytes = %v, want 62.5e6", b)
	}
}

func TestSetRateCapMidFlight(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	f, _ := nw.StartFlow(path, 250e6, FlowOptions{}) // 2 Gbit
	eng.RunUntil(1)                                  // 1 Gbit moved
	if err := nw.SetRateCap(f, 5e8); err != nil {
		t.Fatal(err)
	}
	if f.rate != 5e8 {
		t.Errorf("rate after cap = %v, want 5e8", f.rate)
	}
	eng.Run()
	// Remaining 1 Gbit at 0.5 Gbps -> +2s.
	if math.Abs(float64(f.End())-3.0) > 1e-6 {
		t.Errorf("end = %v, want 3.0", f.End())
	}
	if err := nw.SetRateCap(f, 1); err == nil {
		t.Error("SetRateCap on finished flow should fail")
	}
	if err := nw.SetRateCap(nil, 1); err == nil {
		t.Error("SetRateCap(nil) should fail")
	}
}

func TestSetGuaranteeMidFlight(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	vc, _ := nw.StartFlow(path, 1e12, FlowOptions{}) // starts best-effort
	be, _ := nw.StartFlow(path, 1e12, FlowOptions{})
	if vc.rate != 5e8 || be.rate != 5e8 {
		t.Fatalf("initial shares = %v, %v", vc.rate, be.rate)
	}
	// The circuit comes up: the flow is upgraded to a 7e8 guarantee.
	eng.RunUntil(60)
	if err := nw.SetGuarantee(vc, 7e8); err != nil {
		t.Fatal(err)
	}
	if vc.rate != 7e8 {
		t.Errorf("guaranteed rate = %v, want 7e8", vc.rate)
	}
	if math.Abs(be.rate-3e8) > 1 {
		t.Errorf("best-effort rate = %v, want 3e8", be.rate)
	}
	// Circuit released: back to fair sharing.
	if err := nw.SetGuarantee(vc, 0); err != nil {
		t.Fatal(err)
	}
	if vc.rate != 5e8 || be.rate != 5e8 {
		t.Errorf("post-release shares = %v, %v", vc.rate, be.rate)
	}
	if err := nw.SetGuarantee(vc, -1); err == nil {
		t.Error("negative guarantee should fail")
	}
	if err := nw.SetGuarantee(nil, 1); err == nil {
		t.Error("nil flow should fail")
	}
}

func TestStartFlowValidation(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	if _, err := nw.StartFlow(nil, 1, FlowOptions{}); err == nil {
		t.Error("empty path should fail")
	}
	if _, err := nw.StartFlow(path, 0, FlowOptions{}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := nw.StartFlow(path, 1, FlowOptions{RateCapBps: -1}); err == nil {
		t.Error("negative cap should fail")
	}
	// A path over links from a different topology must be rejected.
	tp2, path2 := line(t, 1e9)
	_ = tp2
	other := topo.New()
	other.AddNode("x", topo.Host)
	nw2 := New(eng, other)
	if _, err := nw2.StartFlow(path2, 1, FlowOptions{}); err == nil {
		t.Error("foreign path should fail")
	}
}

func TestManyFlowsConserveCapacity(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	var flows []*Flow
	for i := 0; i < 20; i++ {
		f, err := nw.StartFlow(path, 1e9, FlowOptions{})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, f)
	}
	total := 0.0
	for _, f := range flows {
		total += f.rate
	}
	if math.Abs(total-1e9) > 1e3 {
		t.Errorf("sum of rates = %v, want 1e9", total)
	}
	// All equal shares.
	for _, f := range flows {
		if math.Abs(f.rate-5e7) > 1e3 {
			t.Errorf("rate = %v, want 5e7", f.rate)
		}
	}
}

func TestGuaranteeCappedByLineRate(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	// Guarantee above line rate: flow gets at most the line rate.
	f, _ := nw.StartFlow(path, 1e12, FlowOptions{GuaranteedBps: 5e9})
	if f.rate != 1e9 {
		t.Errorf("rate = %v, want 1e9 (line rate)", f.rate)
	}
}

func TestDisjointFlowsDoNotInterfere(t *testing.T) {
	eng := simclock.New()
	tp := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c", "d"} {
		tp.AddNode(id, topo.Host)
	}
	tp.AddDuplex("a", "b", 1e9, 0.001)
	tp.AddDuplex("c", "d", 1e9, 0.001)
	nw := New(eng, tp)
	p1, _ := tp.ShortestPath("a", "b")
	p2, _ := tp.ShortestPath("c", "d")
	f1, _ := nw.StartFlow(p1, 1e9, FlowOptions{})
	f2, _ := nw.StartFlow(p2, 1e9, FlowOptions{})
	if f1.rate != 1e9 || f2.rate != 1e9 {
		t.Errorf("disjoint flows throttled: %v, %v", f1.rate, f2.rate)
	}
}
