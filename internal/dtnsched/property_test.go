package dtnsched_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"gftpvc/internal/dtnsched"
	"gftpvc/internal/oscars"
	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// user is the one calendar type as one of its users books it.
type user struct {
	name    string
	reserve func(rateBps float64, start, end simclock.Time) (release func(), err error)
	avail   func(start, end simclock.Time) float64
}

// users returns a fresh calendar over capacityBps reached through each
// of its users: a server's calendar, and the one link of an OSCARS
// ledger.
func users(t *testing.T, capacityBps float64) []user {
	t.Helper()
	cal, err := dtnsched.New(capacityBps)
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.New()
	for _, n := range []topo.NodeID{"a", "b"} {
		if _, err := tp.AddNode(n, topo.Host); err != nil {
			t.Fatal(err)
		}
	}
	link, err := tp.AddLink("a", "b", capacityBps, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	led, err := oscars.NewLedger(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	var circuits oscars.CircuitID
	return []user{
		{
			name: "server",
			reserve: func(rate float64, start, end simclock.Time) (func(), error) {
				r, err := cal.Reserve(rate, start, end)
				return func() { cal.Release(r.ID) }, err
			},
			avail: func(start, end simclock.Time) float64 {
				a, _ := cal.Available(start, end)
				return a
			},
		},
		{
			name: "link",
			reserve: func(rate float64, start, end simclock.Time) (func(), error) {
				circuits++
				id := circuits
				err := led.Reserve(topo.Path{link}, rate, start, end, id)
				return func() { led.Release(id) }, err
			},
			avail: func(start, end simclock.Time) float64 {
				a, _ := led.Available(link, start, end)
				return a
			},
		},
	}
}

// Property: the calendar is never overbooked — at any sampled instant the
// sum of admitted rates is at most capacity, whichever user books it.
func TestNeverOverbookedProperty(t *testing.T) {
	f := func(seed int64) bool {
		capacity := 1e9 + rand.New(rand.NewSource(seed)).Float64()*4e9
		for _, u := range users(t, capacity) {
			rng := rand.New(rand.NewSource(seed))
			rng.Float64() // the capacity draw
			type res struct{ start, end, rate float64 }
			var admitted []res
			for i := 0; i < 60; i++ {
				start := rng.Float64() * 1000
				end := start + 1 + rng.Float64()*300
				rate := rng.Float64() * capacity * 0.8
				if rate <= 0 {
					continue
				}
				if _, err := u.reserve(rate, simclock.Time(start), simclock.Time(end)); err == nil {
					admitted = append(admitted, res{start, end, rate})
				}
			}
			for probe := 0.0; probe < 1400; probe += 13 {
				sum := 0.0
				for _, r := range admitted {
					if r.start <= probe && probe < r.end {
						sum += r.rate
					}
				}
				if sum > capacity*(1+1e-9) {
					t.Logf("%s: %.0f bps booked at t=%v of %.0f", u.name, sum, probe, capacity)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: ReserveEarliest places each claim at or after notBefore, in
// a slot that had the headroom, and no earlier candidate start —
// notBefore or any booking's end — would have fit.
func TestReserveEarliestFeasibleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := dtnsched.New(2e9)
		if err != nil {
			return false
		}
		var ends []simclock.Time
		for i := 0; i < 40; i++ {
			notBefore := simclock.Time(rng.Float64() * 500)
			rate := 0.1e9 + rng.Float64()*1.9e9
			dur := simclock.Duration(1 + rng.Float64()*100)
			r, err := s.ReserveEarliest(rate, float64(dur), notBefore)
			if err != nil || r.Start < notBefore {
				return false
			}
			// Lift the claim back out to see the calendar it was placed on.
			s.Release(r.ID)
			fits := func(at simclock.Time) bool {
				a, _ := s.Available(at, at.Add(dur))
				return a >= rate-1e-9
			}
			if !fits(r.Start) {
				t.Logf("slot at %v lacks headroom for %.0f bps", r.Start, rate)
				return false
			}
			if notBefore < r.Start && fits(notBefore) {
				t.Logf("placed at %v, but notBefore %v fits", r.Start, notBefore)
				return false
			}
			for _, at := range ends {
				if notBefore <= at && at < r.Start && fits(at) {
					t.Logf("placed at %v, but the booking end %v fits", r.Start, at)
					return false
				}
			}
			s.Put(r)
			ends = append(ends, r.End)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestReleaseIdempotent: releasing a claim twice frees it once, through
// every user of the calendar, the wall-clock adapter included.
func TestReleaseIdempotent(t *testing.T) {
	for _, u := range users(t, 1e9) {
		release, err := u.reserve(1e9, 0, 10)
		if err != nil {
			t.Fatalf("%s: %v", u.name, err)
		}
		release()
		release()
		if a := u.avail(0, 10); a != 1e9 {
			t.Errorf("%s: release did not clear: %.0f available, want 1e9", u.name, a)
		}
	}
	w, err := dtnsched.NewWall(1e9)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.ReserveNow(1e9, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	w.Release(r.ID)
	w.Release(r.ID)
	if a := w.AvailableNow(time.Minute); a != 1e9 {
		t.Errorf("wall: release did not clear: %.0f available, want 1e9", a)
	}
}
