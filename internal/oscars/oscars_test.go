package oscars

import (
	"math"
	"testing"

	"gftpvc/internal/dtnsched"
	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// chain builds a topology a-b-c with 10 Gbps duplex links.
func chain(t *testing.T) *topo.Topology {
	t.Helper()
	tp := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c"} {
		if _, err := tp.AddNode(id, topo.Host); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddDuplex("a", "b", 10e9, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddDuplex("b", "c", 10e9, 0.01); err != nil {
		t.Fatal(err)
	}
	return tp
}

func newIDC(t *testing.T, tp *topo.Topology, model SetupModel) (*simclock.Engine, *IDC) {
	t.Helper()
	eng := simclock.New()
	led, err := NewLedger(tp, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	idc, err := NewIDC("esnet", eng, led, model)
	if err != nil {
		t.Fatal(err)
	}
	return eng, idc
}

func TestNewLedgerValidation(t *testing.T) {
	tp := chain(t)
	if _, err := NewLedger(nil, 0.5); err == nil {
		t.Error("nil topology should fail")
	}
	for _, f := range []float64{0, -1, 1.5} {
		if _, err := NewLedger(tp, f); err == nil {
			t.Errorf("fraction %v should fail", f)
		}
	}
}

func TestAvailableNoBookings(t *testing.T) {
	tp := chain(t)
	led, _ := NewLedger(tp, 0.8)
	l := tp.Link("a", "b")
	got, err := led.Available(l, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 8e9 {
		t.Errorf("available = %v, want 8e9 (80%% of 10G)", got)
	}
	if _, err := led.Available(nil, 0, 1); err == nil {
		t.Error("nil link should fail")
	}
	if _, err := led.Available(l, 5, 5); err == nil {
		t.Error("empty interval should fail")
	}
}

func TestBookingReducesAvailability(t *testing.T) {
	tp := chain(t)
	led, _ := NewLedger(tp, 0.8)
	path, _ := tp.ShortestPath("a", "c")
	if err := led.Reserve(path, 3e9, 10, 20, 1); err != nil {
		t.Fatal(err)
	}
	l := tp.Link("a", "b")
	if got, _ := led.Available(l, 10, 20); got != 5e9 {
		t.Errorf("available during booking = %v, want 5e9", got)
	}
	// Outside the interval the booking does not count.
	if got, _ := led.Available(l, 20, 30); got != 8e9 {
		t.Errorf("available after booking = %v, want 8e9", got)
	}
	if got, _ := led.Available(l, 0, 10); got != 8e9 {
		t.Errorf("available before booking = %v, want 8e9", got)
	}
	// Partial overlap counts the peak.
	if got, _ := led.Available(l, 15, 25); got != 5e9 {
		t.Errorf("available overlapping = %v, want 5e9", got)
	}
}

// TestBackToBackBookingsDoNotDoubleCount runs through both users of
// the calendar: the ledger's links and a server's calendar.
func TestBackToBackBookingsDoNotDoubleCount(t *testing.T) {
	tp := chain(t)
	led, _ := NewLedger(tp, 1.0)
	path, _ := tp.ShortestPath("a", "c")
	if err := led.Reserve(path, 6e9, 0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := led.Reserve(path, 6e9, 10, 20, 2); err != nil {
		t.Fatal(err)
	}
	// Peak within [0,20) is 6e9, not 12e9.
	for _, l := range path {
		if got, _ := led.Available(l, 0, 20); got != 4e9 {
			t.Errorf("link %s: available = %v, want 4e9", l.ID, got)
		}
	}
	server, _ := dtnsched.New(10e9)
	if _, err := server.Reserve(6e9, 0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Reserve(6e9, 10, 20); err != nil {
		t.Fatal(err)
	}
	if got, _ := server.Available(0, 20); got != 4e9 {
		t.Errorf("server: available = %v, want 4e9", got)
	}
}

func TestBookAtomicOnFailure(t *testing.T) {
	tp := chain(t)
	led, _ := NewLedger(tp, 0.5) // 5 Gbps reservable
	path, _ := tp.ShortestPath("a", "c")
	if err := led.Reserve(path, 4e9, 0, 10, 1); err != nil {
		t.Fatal(err)
	}
	if err := led.Reserve(path, 2e9, 0, 10, 2); err == nil {
		t.Fatal("overbooking should fail")
	}
	// The failed attempt must not leave partial bookings.
	l := tp.Link("a", "b")
	if got, _ := led.Available(l, 0, 10); got != 1e9 {
		t.Errorf("available = %v, want 1e9 (only first booking)", got)
	}
}

// TestReleaseIdempotent runs through both users of the calendar: the
// ledger's links and a server's calendar.
func TestReleaseIdempotent(t *testing.T) {
	tp := chain(t)
	led, _ := NewLedger(tp, 1.0)
	path, _ := tp.ShortestPath("a", "c")
	led.Reserve(path, 1e9, 0, 10, 7)
	if got, _ := led.Available(path[0], 0, 10); got != 9e9 {
		t.Fatalf("available = %v, want 9e9 with one circuit booked", got)
	}
	led.Release(7)
	led.Release(7)
	for _, l := range path {
		if got, _ := led.Available(l, 0, 10); got != 10e9 {
			t.Errorf("link %s: release did not clear bookings: available = %v", l.ID, got)
		}
	}
	server, _ := dtnsched.New(10e9)
	r, _ := server.Reserve(1e9, 0, 10)
	server.Release(r.ID)
	server.Release(r.ID)
	if got, _ := server.Available(0, 10); got != 10e9 {
		t.Errorf("server: release did not clear bookings: available = %v", got)
	}
}

func TestPathWithBandwidthRejectsSaturated(t *testing.T) {
	tp := chain(t)
	led, _ := NewLedger(tp, 0.5)
	path, _ := tp.ShortestPath("a", "c")
	led.Reserve(path, 5e9, 0, 100, 1)
	if _, err := led.PathWithBandwidth("a", "c", 1e9, 0, 100); err == nil {
		t.Error("saturated interval should have no path")
	}
	// A different time window is fine.
	if _, err := led.PathWithBandwidth("a", "c", 1e9, 100, 200); err != nil {
		t.Errorf("free window rejected: %v", err)
	}
	if _, err := led.PathWithBandwidth("a", "c", 0, 0, 1); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := led.PathWithBandwidth("a", "c", 1, 1, 1); err == nil {
		t.Error("empty interval should fail")
	}
}

func TestCreateReservationBatchedSetupDelay(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, BatchedSignaling)
	// Request at t=0 for immediate use: provisioned at the next minute
	// boundary + router config time. At t=0 the boundary is t=0 itself...
	// advance to t=5 first so the boundary is t=60.
	eng.MustAt(5, func() {
		c, err := idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9,
			Start: eng.Now(), End: eng.Now().Add(simclock.Hour),
		})
		if err != nil {
			t.Errorf("CreateReservation: %v", err)
			return
		}
		if c.State() != Provisioning {
			t.Errorf("state = %v, want PROVISIONING", c.State())
		}
		eng.MustAt(63, func() {
			if c.State() != Active {
				t.Errorf("state at t=63 = %v, want ACTIVE", c.State())
			}
			if got := float64(c.SetupDelay()); math.Abs(got-57) > 1e-9 {
				t.Errorf("setup delay = %v, want 57s (next minute + 2s config)", got)
			}
		})
	})
	eng.RunUntil(70)
}

func TestCreateReservationHardwareSetupDelay(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling)
	eng.MustAt(5, func() {
		c, err := idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9,
			Start: eng.Now(), End: eng.Now().Add(simclock.Hour),
		})
		if err != nil {
			t.Errorf("CreateReservation: %v", err)
			return
		}
		eng.MustAt(6, func() {
			if c.State() != Active {
				t.Errorf("state = %v, want ACTIVE after 50ms", c.State())
			}
			if got := float64(c.SetupDelay()); math.Abs(got-0.05) > 1e-9 {
				t.Errorf("setup delay = %v, want 0.05", got)
			}
		})
	})
	eng.RunUntil(10)
}

func TestCircuitLifecycleAndCallbacks(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling)
	var activeAt, releaseAt simclock.Time
	idc.OnActive = func(c *Circuit) { activeAt = eng.Now() }
	idc.OnRelease = func(c *Circuit) { releaseAt = eng.Now() }
	var c *Circuit
	eng.MustAt(0, func() {
		var err error
		c, err = idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9, Start: 10, End: 20,
		})
		if err != nil {
			t.Errorf("CreateReservation: %v", err)
		}
	})
	eng.RunUntil(100)
	if c.State() != Released {
		t.Fatalf("state = %v, want RELEASED", c.State())
	}
	if math.Abs(float64(activeAt)-10.05) > 1e-9 {
		t.Errorf("activated at %v, want 10.05", activeAt)
	}
	if math.Abs(float64(releaseAt)-20) > 1e-9 {
		t.Errorf("released at %v, want 20", releaseAt)
	}
	for _, l := range c.Path {
		if got, _ := idc.Ledger().Available(l, 10, 20); got != 8e9 {
			t.Errorf("link %s not cleared after release: available = %v", l.ID, got)
		}
	}
}

func TestCreateReservationValidation(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, BatchedSignaling)
	cases := []Request{
		{Src: "a", Dst: "c", RateBps: 0, Start: 0, End: 10},    // zero rate
		{Src: "a", Dst: "c", RateBps: 1e9, Start: 10, End: 10}, // empty window
		{Src: "a", Dst: "zzz", RateBps: 1e9, Start: 0, End: 10},
	}
	for i, req := range cases {
		if _, err := idc.CreateReservation(req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Past start.
	eng.MustAt(50, func() {
		if _, err := idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9, Start: 10, End: 100,
		}); err == nil {
			t.Error("past start should fail")
		}
	})
	eng.RunUntil(60)
}

func TestAdmissionControlBlocksOverbooking(t *testing.T) {
	tp := chain(t)
	_, idc := newIDC(t, tp, HardwareSignaling)
	// 8 Gbps reservable; two 5 Gbps circuits cannot coexist.
	if _, err := idc.CreateReservation(Request{
		Src: "a", Dst: "c", RateBps: 5e9, Start: 0, End: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := idc.CreateReservation(Request{
		Src: "a", Dst: "c", RateBps: 5e9, Start: 50, End: 150,
	}); err == nil {
		t.Fatal("overlapping overbooking should be rejected")
	}
	// Non-overlapping window is admitted (advance reservation).
	if _, err := idc.CreateReservation(Request{
		Src: "a", Dst: "c", RateBps: 5e9, Start: 100, End: 200,
	}); err != nil {
		t.Fatalf("advance reservation rejected: %v", err)
	}
}

func TestCancelBeforeAndAfterActivation(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling)
	var early, late *Circuit
	eng.MustAt(0, func() {
		early, _ = idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9, Start: 50, End: 100,
		})
		late, _ = idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9, Start: 0, End: 100,
		})
		if err := idc.Cancel(early); err != nil {
			t.Errorf("cancel reserved: %v", err)
		}
	})
	eng.RunUntil(10)
	if early.State() != Cancelled {
		t.Errorf("early state = %v, want CANCELLED", early.State())
	}
	if late.State() != Active {
		t.Fatalf("late state = %v, want ACTIVE", late.State())
	}
	if err := idc.Cancel(late); err != nil {
		t.Fatal(err)
	}
	if late.State() != Released {
		t.Errorf("late state = %v, want RELEASED after cancel", late.State())
	}
	if err := idc.Cancel(late); err == nil {
		t.Error("cancelling released circuit should fail")
	}
	if err := idc.Cancel(nil); err == nil {
		t.Error("cancel nil should fail")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Reserved: "RESERVED", Provisioning: "PROVISIONING",
		Active: "ACTIVE", Released: "RELEASED", Cancelled: "CANCELLED",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %s, want %s", s, s.String(), want)
		}
	}
}

// buildTwoDomains creates domain1: a-b1 (border b1), domain2: b1-c.
func buildTwoDomains(t *testing.T) (*simclock.Engine, []*IDC, []topo.NodeID) {
	t.Helper()
	eng := simclock.New()
	mk := func(name string, nodes []topo.NodeID) *IDC {
		tp := topo.New()
		for _, n := range nodes {
			if _, err := tp.AddNode(n, topo.BackboneRouter); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+1 < len(nodes); i++ {
			if err := tp.AddDuplex(nodes[i], nodes[i+1], 10e9, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		led, err := NewLedger(tp, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		idc, err := NewIDC(name, eng, led, HardwareSignaling)
		if err != nil {
			t.Fatal(err)
		}
		return idc
	}
	d1 := mk("esnet", []topo.NodeID{"a", "x", "b1"})
	d2 := mk("internet2", []topo.NodeID{"b1", "y", "c"})
	return eng, []*IDC{d1, d2}, []topo.NodeID{"b1"}
}

func TestFederationValidation(t *testing.T) {
	_, idcs, borders := buildTwoDomains(t)
	if _, err := NewFederation(idcs[:1], nil); err == nil {
		t.Error("single domain should fail")
	}
	if _, err := NewFederation(idcs, nil); err == nil {
		t.Error("missing borders should fail")
	}
	if _, err := NewFederation(idcs, []topo.NodeID{"nonexistent"}); err == nil {
		t.Error("unknown border should fail")
	}
	if _, err := NewFederation(idcs, borders); err != nil {
		t.Errorf("valid federation rejected: %v", err)
	}
}

func TestFederationEndToEnd(t *testing.T) {
	eng, idcs, borders := buildTwoDomains(t)
	fed, err := NewFederation(idcs, borders)
	if err != nil {
		t.Fatal(err)
	}
	var c *InterDomainCircuit
	eng.MustAt(0, func() {
		c, err = fed.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 2e9, Start: 0, End: 100,
		})
		if err != nil {
			t.Errorf("federation reservation: %v", err)
		}
	})
	eng.RunUntil(1)
	if c.State() != Active {
		t.Fatalf("state = %v, want ACTIVE", c.State())
	}
	if len(c.Segments) != 2 {
		t.Fatalf("segments = %d, want 2", len(c.Segments))
	}
	if got := c.Segments[0].Path.String(); got != "a->x->b1" {
		t.Errorf("segment 0 path = %s", got)
	}
	if got := c.Segments[1].Path.String(); got != "b1->y->c" {
		t.Errorf("segment 1 path = %s", got)
	}
	for i, seg := range c.Segments {
		if seg.provisionedAt <= 0 {
			t.Errorf("segment %d: provisionedAt not set", i)
		}
	}
}

func TestFederationRollbackOnRejection(t *testing.T) {
	eng, idcs, borders := buildTwoDomains(t)
	fed, _ := NewFederation(idcs, borders)
	// Saturate domain 2 so the chain fails there.
	eng.MustAt(0, func() {
		if _, err := idcs[1].CreateReservation(Request{
			Src: "b1", Dst: "c", RateBps: 8e9, Start: 0, End: 100,
		}); err != nil {
			t.Errorf("pre-booking: %v", err)
		}
		led := idcs[0].Ledger()
		links := led.Topology().Links()
		before := make([]float64, len(links))
		for i, l := range links {
			before[i], _ = led.Available(l, 0, 100)
		}
		if _, err := fed.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 2e9, Start: 0, End: 100,
		}); err == nil {
			t.Error("federation should fail when a domain is saturated")
		}
		for i, l := range links {
			if after, _ := led.Available(l, 0, 100); after != before[i] {
				t.Errorf("domain 1 ledger leaked on %s: available %v -> %v", l.ID, before[i], after)
			}
		}
	})
	eng.RunUntil(1)
}
