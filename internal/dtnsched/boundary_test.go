// Concurrency and boundary suite for the reservation calendar — the
// pins the fleet layer needs before leaning on it with wall-clock time:
// half-open interval semantics at exact booking edges, earliest-slot
// placement with notBefore inside a booking, Reserve/Release churn
// under the race detector, and the wall-clock adapter's prune-as-time-
// advances behavior.
package dtnsched

import (
	"sync"
	"testing"
	"time"

	"gftpvc/internal/simclock"
)

func mustReserve(t *testing.T, s *Calendar, rate float64, start, end simclock.Time) Reservation {
	t.Helper()
	r, err := s.Reserve(rate, start, end)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func availOf(t *testing.T, s *Calendar, start, end simclock.Time) float64 {
	t.Helper()
	a, err := s.Available(start, end)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestAvailableAtBookingEdges pins the half-open [start, end) contract:
// a booking ending exactly where the queried interval starts (b.end ==
// start), or starting exactly where it ends (b.start == end), must not
// constrain it at all — capacity frees at the instant a booking ends
// and is taken at the instant one begins.
func TestAvailableAtBookingEdges(t *testing.T) {
	s, err := New(1000)
	if err != nil {
		t.Fatal(err)
	}
	mustReserve(t, s, 600, 10, 20)
	if a := availOf(t, s, 20, 30); a != 1000 {
		t.Errorf("b.end == start: Available(20,30) = %.0f, want 1000", a)
	}
	if a := availOf(t, s, 0, 10); a != 1000 {
		t.Errorf("b.start == end: Available(0,10) = %.0f, want 1000", a)
	}
	// One instant inside either edge the booking must bind.
	if a := availOf(t, s, 19, 20); a != 400 {
		t.Errorf("Available(19,20) = %.0f, want 400", a)
	}
	if a := availOf(t, s, 10, 11); a != 400 {
		t.Errorf("Available(10,11) = %.0f, want 400", a)
	}
	// And a back-to-back reservation at full remaining rate must admit
	// on both sides of the booking.
	if _, err := s.Reserve(1000, 20, 25); err != nil {
		t.Errorf("back-to-back reserve at b.end refused: %v", err)
	}
	if _, err := s.Reserve(1000, 5, 10); err != nil {
		t.Errorf("back-to-back reserve at b.start refused: %v", err)
	}
}

// TestReserveEarliestNotBeforeInsideBooking places notBefore in the
// middle of a saturating booking: the earliest feasible start is the
// booking's end, not notBefore (headroom there is too small) and not
// zero (the request must not travel back before notBefore).
func TestReserveEarliestNotBeforeInsideBooking(t *testing.T) {
	s, err := New(1000)
	if err != nil {
		t.Fatal(err)
	}
	mustReserve(t, s, 800, 0, 100)
	r, err := s.ReserveEarliest(500, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 100 || r.End != 110 {
		t.Errorf("placed at [%v,%v), want [100,110)", r.Start, r.End)
	}
	// A request that does fit under the booking must start exactly at
	// notBefore, inside the booking.
	r2, err := s.ReserveEarliest(200, 10, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start != 50 {
		t.Errorf("fitting request placed at %v, want notBefore (50)", r2.Start)
	}
}

// TestConcurrentReserveReleaseChurn hammers the calendar from many
// goroutines under -race: admission must never oversubscribe an
// instant, and after all claims release the calendar must drain to
// empty, full capacity.
func TestConcurrentReserveReleaseChurn(t *testing.T) {
	const (
		capacity = 1000
		rate     = 100
		workers  = 16
		iters    = 50
	)
	s, err := New(capacity)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r, err := s.Reserve(rate, 0, 10)
				if err != nil {
					// Headroom race lost: legal under churn.
					continue
				}
				if a := availOf(t, s, 0, 10); a < 0 {
					t.Errorf("negative availability %f", a)
				}
				if w%2 == 0 {
					if _, err := s.ReserveEarliest(rate, 5, 0); err == nil {
						// Earliest placements release via Prune below.
						_ = err
					}
				}
				s.Release(r.ID)
				s.Release(r.ID) // idempotent under concurrency too
			}
		}(w)
	}
	wg.Wait()
	s.Prune(simclock.Time(1e18))
	if n := s.Reservations(); n != 0 {
		t.Fatalf("calendar did not drain: %d live bookings", n)
	}
	if a := availOf(t, s, 0, 10); a != capacity {
		t.Fatalf("drained calendar reports %.0f available, want %d", a, capacity)
	}
}

// TestPruneDropsOnlyExpired: bookings ending at or before the cutoff go,
// everything still binding stays.
func TestPruneDropsOnlyExpired(t *testing.T) {
	s, err := New(1000)
	if err != nil {
		t.Fatal(err)
	}
	mustReserve(t, s, 100, 0, 10)
	mustReserve(t, s, 100, 5, 20)
	live := mustReserve(t, s, 100, 15, 30)
	if n := s.Prune(10); n != 1 {
		t.Fatalf("Prune(10) dropped %d, want 1", n)
	}
	if n := s.Prune(20); n != 1 {
		t.Fatalf("Prune(20) dropped %d, want 1", n)
	}
	if s.Reservations() != 1 {
		t.Fatalf("want the [15,30) booking to survive, have %d", s.Reservations())
	}
	s.Release(live.ID)
	if s.Reservations() != 0 {
		t.Fatal("release after prune left a booking")
	}
}

// TestWallClockCalendar drives the wall-clock adapter with a fake
// clock: claims bind AvailableNow, expire as the clock advances (and
// are pruned), and release frees capacity immediately.
func TestWallClockCalendar(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	w, err := NewWall(1000)
	if err != nil {
		t.Fatal(err)
	}
	w.epoch, w.now = now, clock
	if a := w.AvailableNow(10 * time.Second); a != 1000 {
		t.Fatalf("fresh calendar: AvailableNow = %.0f, want 1000", a)
	}
	r, err := w.ReserveNow(600, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if a := w.AvailableNow(5 * time.Second); a != 400 {
		t.Fatalf("claimed calendar: AvailableNow = %.0f, want 400", a)
	}
	if _, err := w.ReserveNow(600, time.Second); err == nil {
		t.Fatal("oversubscribing ReserveNow admitted")
	}
	if n := w.s.Reservations(); n != 1 {
		t.Fatalf("live claims = %d, want 1", n)
	}
	// The clock passes the claim's end: it stops binding and prunes.
	now = now.Add(11 * time.Second)
	if a := w.AvailableNow(10 * time.Second); a != 1000 {
		t.Fatalf("expired claim still binds: AvailableNow = %.0f", a)
	}
	if n := w.s.Reservations(); n != 0 {
		t.Fatalf("expired claim not pruned: %d live claims", n)
	}
	w.Release(r.ID) // idempotent on an expired claim
	// Release frees capacity before expiry.
	r2, err := w.ReserveNow(1000, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReserveNow(1, time.Second); err == nil {
		t.Fatal("saturated calendar admitted")
	}
	w.Release(r2.ID)
	if a := w.AvailableNow(time.Minute); a != 1000 {
		t.Fatalf("release did not free capacity: AvailableNow = %.0f", a)
	}
}

// TestWallZeroDuration: degenerate queries are refused, not admitted.
func TestWallZeroDuration(t *testing.T) {
	w, err := NewWall(1000)
	if err != nil {
		t.Fatal(err)
	}
	if a := w.AvailableNow(0); a != 0 {
		t.Fatalf("AvailableNow(0) = %.0f, want 0", a)
	}
	if _, err := w.ReserveNow(100, 0); err == nil {
		t.Fatal("ReserveNow with zero duration admitted")
	}
}
