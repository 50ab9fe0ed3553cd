// Wall adapts the reservation calendar from the simulated clock to the
// wall clock, so a live dispatcher can use it as admission control: the
// paper's "schedule server resources prior to data transfers"
// recommendation, applied to transfers that start now rather than in a
// simulated trace.
package dtnsched

import (
	"time"

	"gftpvc/internal/simclock"
)

// Wall is a wall-clock view of a Calendar: reservations are claimed
// "from now" for a duration, and expired bookings are pruned as time
// advances. It is safe for concurrent use (the underlying Calendar
// serializes) and adds no state of its own beyond the epoch.
type Wall struct {
	s     *Calendar
	epoch time.Time
	// now is injectable for tests; defaults to time.Now.
	now func() time.Time
}

// NewWall wraps a fresh wall-clock calendar around capacityBps.
func NewWall(capacityBps float64) (*Wall, error) {
	s, err := New(capacityBps)
	if err != nil {
		return nil, err
	}
	return &Wall{s: s, epoch: time.Now(), now: time.Now}, nil
}

// next prunes what has expired and maps the next dur of wall time onto
// the calendar's simulated timeline.
func (w *Wall) next(dur time.Duration) (start, end simclock.Time) {
	start = simclock.Time(w.now().Sub(w.epoch).Seconds())
	w.s.Prune(start)
	return start, start.Add(simclock.Duration(dur.Seconds()))
}

// AvailableNow returns the capacity guaranteed free for the next dur.
func (w *Wall) AvailableNow(dur time.Duration) float64 {
	if dur <= 0 {
		return 0
	}
	avail, err := w.s.Available(w.next(dur))
	if err != nil {
		return 0
	}
	return avail
}

// ReserveNow claims rateBps for the next dur, starting immediately.
// Unlike the simulated calendar there is no queueing into the future —
// a live job starts now or places elsewhere — so the claim fails when
// the next dur lacks headroom.
func (w *Wall) ReserveNow(rateBps float64, dur time.Duration) (Reservation, error) {
	start, end := w.next(dur)
	return w.s.Reserve(rateBps, start, end)
}

// Release frees a claim. It is idempotent.
func (w *Wall) Release(id ReservationID) { w.s.Release(id) }
