package oscars

import (
	"math"
	"testing"

	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

func TestModifyShrinkRate(t *testing.T) {
	tp := chain(t)
	_, idc := newIDC(t, tp, HardwareSignaling)
	c, err := idc.CreateReservation(Request{
		Src: "a", Dst: "c", RateBps: 4e9, Start: 10, End: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := idc.Modify(c, 1e9, 100); err != nil {
		t.Fatal(err)
	}
	if c.Request.RateBps != 1e9 {
		t.Errorf("rate = %v, want 1e9", c.Request.RateBps)
	}
	// The freed bandwidth is claimable by another circuit.
	if _, err := idc.CreateReservation(Request{
		Src: "a", Dst: "c", RateBps: 7e9, Start: 10, End: 100,
	}); err != nil {
		t.Fatalf("freed capacity not claimable: %v", err)
	}
}

func TestModifyGrowRejectedWhenFull(t *testing.T) {
	tp := chain(t)
	_, idc := newIDC(t, tp, HardwareSignaling)
	a, _ := idc.CreateReservation(Request{Src: "a", Dst: "c", RateBps: 4e9, Start: 10, End: 100})
	if _, err := idc.CreateReservation(Request{Src: "a", Dst: "c", RateBps: 4e9, Start: 10, End: 100}); err != nil {
		t.Fatal(err)
	}
	// 8 Gbps reservable, 8 booked: growing a to 5e9 must fail and leave
	// the original booking intact.
	if err := idc.Modify(a, 5e9, 100); err == nil {
		t.Fatal("grow should be rejected")
	}
	if a.Request.RateBps != 4e9 {
		t.Errorf("rate after failed modify = %v, want 4e9", a.Request.RateBps)
	}
	// The ledger still holds both bookings: nothing extra fits.
	if _, err := idc.CreateReservation(Request{Src: "a", Dst: "c", RateBps: 1e9, Start: 10, End: 100}); err == nil {
		t.Fatal("rollback leaked bandwidth")
	}
}

func TestModifyExtendActiveCircuit(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling)
	var releasedAt simclock.Time
	idc.OnRelease = func(*Circuit) { releasedAt = eng.Now() }
	var c *Circuit
	eng.MustAt(0, func() {
		var err error
		c, err = idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9, Start: 0, End: 50,
		})
		if err != nil {
			t.Error(err)
		}
	})
	eng.MustAt(10, func() {
		if c.State() != Active {
			t.Error("circuit should be active at t=10")
		}
		if err := idc.Modify(c, 1e9, 200); err != nil {
			t.Errorf("extend: %v", err)
		}
	})
	eng.RunUntil(100)
	if c.State() != Active {
		t.Fatalf("state at t=100 = %v, want ACTIVE (extended to 200)", c.State())
	}
	eng.RunUntil(250)
	if c.State() != Released {
		t.Fatalf("state at t=250 = %v, want RELEASED", c.State())
	}
	if math.Abs(float64(releasedAt)-200) > 1e-9 {
		t.Errorf("released at %v, want 200", releasedAt)
	}
}

func TestModifyShortenActiveCircuit(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling)
	var releasedAt simclock.Time
	idc.OnRelease = func(*Circuit) { releasedAt = eng.Now() }
	var c *Circuit
	eng.MustAt(0, func() {
		c, _ = idc.CreateReservation(Request{
			Src: "a", Dst: "c", RateBps: 1e9, Start: 0, End: 500,
		})
	})
	eng.MustAt(10, func() {
		if err := idc.Modify(c, 1e9, simclock.Time(60)); err != nil {
			t.Errorf("shorten: %v", err)
		}
	})
	eng.RunUntil(100)
	if c.State() != Released {
		t.Fatalf("state = %v, want RELEASED at shortened end", c.State())
	}
	if math.Abs(float64(releasedAt)-60) > 1e-9 {
		t.Errorf("released at %v, want 60", releasedAt)
	}
}

func TestModifyValidation(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling)
	if err := idc.Modify(nil, 1e9, 10); err == nil {
		t.Error("nil circuit should fail")
	}
	var c *Circuit
	eng.MustAt(0, func() {
		c, _ = idc.CreateReservation(Request{Src: "a", Dst: "c", RateBps: 1e9, Start: 0, End: 10})
	})
	eng.RunUntil(1)
	if err := idc.Modify(c, 0, 10); err == nil {
		t.Error("zero rate should fail")
	}
	if err := idc.Modify(c, 1e9, 0); err == nil {
		t.Error("end before now should fail")
	}
	eng.RunUntil(50) // circuit released
	if err := idc.Modify(c, 1e9, 100); err == nil {
		t.Error("modifying a released circuit should fail")
	}
}

// TestRefusedModifyRestoresBookings: a refused modify leaves every link
// the circuit used exactly as it was — Available is unchanged between
// every pair of adjacent booking edges, including the part of an Active
// circuit's booking that lies in the past.
func TestRefusedModifyRestoresBookings(t *testing.T) {
	tp := chain(t)
	eng, idc := newIDC(t, tp, HardwareSignaling) // 8 Gbps reservable
	led := idc.Ledger()
	edges := []simclock.Time{0, 20, 50, 60, 100, 150, 200, 250, 300, 350}
	snapshot := func(cs []*Circuit) []float64 {
		var out []float64
		for _, c := range cs {
			for _, l := range c.Path {
				for i := 0; i+1 < len(edges); i++ {
					a, err := led.Available(l, edges[i], edges[i+1])
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, a)
				}
			}
		}
		return out
	}
	reserve := func(src, dst topo.NodeID, rate float64, start, end simclock.Time) *Circuit {
		c, err := idc.CreateReservation(Request{Src: src, Dst: dst, RateBps: rate, Start: start, End: end})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var active, future *Circuit
	eng.MustAt(0, func() {
		active = reserve("a", "c", 3e9, 0, 100)
		reserve("a", "c", 2e9, 20, 60)
		reserve("b", "c", 1e9, 50, 150)
		future = reserve("a", "c", 5e9, 200, 300)
		reserve("a", "b", 3e9, 250, 350)
	})
	eng.MustAt(30, func() {
		if active.State() != Active {
			t.Fatalf("state at t=30 = %v, want ACTIVE", active.State())
		}
		for _, tc := range []struct {
			name string
			c    *Circuit
			rate float64
			end  simclock.Time
		}{
			{"active", active, 7e9, 100},
			{"reserved", future, 6e9, 300},
		} {
			before := snapshot([]*Circuit{active, future})
			if err := idc.Modify(tc.c, tc.rate, tc.end); err == nil {
				t.Fatalf("%s: growing to %.0f bps should be refused", tc.name, tc.rate)
			}
			after := snapshot([]*Circuit{active, future})
			for i := range before {
				if before[i] != after[i] {
					t.Errorf("%s: window %d: available %v before the refused modify, %v after",
						tc.name, i, before[i], after[i])
				}
			}
		}
		// The ledger's own Book, refused between endpoints with no
		// path at all, restores just as exactly.
		before := snapshot([]*Circuit{active, future})
		if _, err := led.Book(future.ID, "a", "nowhere", 1e9, 200, 300); err == nil {
			t.Fatal("modify to an unknown node should be refused")
		}
		after := snapshot([]*Circuit{active, future})
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("no path: window %d: available %v before, %v after", i, before[i], after[i])
			}
		}
	})
	eng.RunUntil(31)
}
