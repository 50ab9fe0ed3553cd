// Package dtnsched holds the reservation calendar both scheduled
// resources share: an admission-controlled list of bookings over one
// capacity, with earliest-feasible-slot placement. A data-transfer
// node's aggregate capacity (the R of Eq. 2) is one calendar — the
// paper's concluding recommendation, "solutions to reduce throughput
// variance require scheduling of server resources prior to data
// transfers, not just network bandwidth" — and the OSCARS bandwidth
// ledger (internal/oscars) keeps one per link, so servers are
// scheduled by the very calendar that schedules the network. Wall maps
// a calendar onto the wall clock for live admission control.
package dtnsched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"gftpvc/internal/simclock"
)

// ReservationID identifies one admitted claim on a calendar.
type ReservationID int64

// Reservation is an admitted claim: RateBps of the calendar's capacity
// during [Start, End).
type Reservation struct {
	ID      ReservationID
	RateBps float64
	Start   simclock.Time
	End     simclock.Time
}

// Calendar is a reservation calendar over one capacity: the bookings
// admitted against it, and the one booking-peak sweep that admits
// them. It is safe for concurrent use.
type Calendar struct {
	capacity float64

	mu       sync.Mutex
	nextID   ReservationID
	bookings []Reservation
}

// New creates a calendar over capacityBps: a server's rate across all
// its concurrent transfers, or a link's reservable share.
func New(capacityBps float64) (*Calendar, error) {
	if capacityBps <= 0 {
		return nil, errors.New("dtnsched: capacity must be positive")
	}
	return &Calendar{capacity: capacityBps}, nil
}

// Available returns the guaranteed-free capacity throughout [start, end).
func (c *Calendar) Available(start, end simclock.Time) (float64, error) {
	if end <= start {
		return 0, errors.New("dtnsched: empty interval")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.availableLocked(start, end), nil
}

// edge is one end of a booking in a sweep: its rate claimed (delta > 0)
// or released (delta < 0) at the instant at.
type edge struct {
	at    simclock.Time
	delta float64
}

// sortEdges orders a sweep's edges by time, releases before claims at
// the same instant, so back-to-back bookings do not double-count.
func sortEdges(edges []edge) {
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.delta, b.delta))
	})
}

// availableLocked is capacity minus the peak booked rate within [start,
// end), found by sweeping booking boundaries. Intervals are half-open,
// so a booking ending where another begins does not overlap it.
func (c *Calendar) availableLocked(start, end simclock.Time) float64 {
	var edges []edge
	for _, b := range c.bookings {
		if b.End <= start || b.Start >= end {
			continue
		}
		lo, hi := b.Start, b.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		edges = append(edges, edge{lo, b.RateBps}, edge{hi, -b.RateBps})
	}
	if len(edges) == 0 {
		return c.capacity
	}
	sortEdges(edges)
	cur, peak := 0.0, 0.0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return math.Max(0, c.capacity-peak)
}

// admitLocked books a claim the caller has found headroom for.
func (c *Calendar) admitLocked(rateBps float64, start, end simclock.Time) Reservation {
	c.nextID++
	r := Reservation{ID: c.nextID, RateBps: rateBps, Start: start, End: end}
	c.bookings = append(c.bookings, r)
	return r
}

// Reserve admits a claim of rateBps during [start, end), or fails when
// the calendar lacks headroom.
func (c *Calendar) Reserve(rateBps float64, start, end simclock.Time) (Reservation, error) {
	if rateBps <= 0 {
		return Reservation{}, errors.New("dtnsched: rate must be positive")
	}
	if end <= start {
		return Reservation{}, errors.New("dtnsched: empty interval")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.availableLocked(start, end) < rateBps-1e-9 {
		return Reservation{}, fmt.Errorf("dtnsched: no headroom for %.0f bps in [%v,%v)", rateBps, start, end)
	}
	return c.admitLocked(rateBps, start, end), nil
}

// ReserveEarliest places a claim of rateBps for durationSec at the
// earliest feasible start at or after notBefore — the primitive a
// transfer tool calls before starting: "when can this server give me
// 1 Gbps for ten minutes?". Candidate starts are notBefore and the ends
// of existing bookings (capacity only frees at those instants).
func (c *Calendar) ReserveEarliest(rateBps, durationSec float64, notBefore simclock.Time) (Reservation, error) {
	if rateBps <= 0 || durationSec <= 0 {
		return Reservation{}, errors.New("dtnsched: rate and duration must be positive")
	}
	if rateBps > c.capacity {
		return Reservation{}, fmt.Errorf("dtnsched: rate %.0f exceeds capacity %.0f", rateBps, c.capacity)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	dur := simclock.Duration(durationSec)
	at := c.earliestLocked(rateBps, dur, notBefore)
	return c.admitLocked(rateBps, at, at.Add(dur)), nil
}

// earliestLocked finds ReserveEarliest's start in one sorted pass over
// the edges of the bookings that end after notBefore. The booked rate
// is constant between consecutive edge instants; a start at is feasible
// when no such segment that overlaps [at, at+dur) lacks the headroom.
// A segment that does moves the start to the segment's end, where a
// booking ends — the next candidate that segment does not refuse.
// Past the last edge nothing is booked, so the pass always ends on a
// feasible start, in O(n log n) for n bookings.
func (c *Calendar) earliestLocked(rateBps float64, dur simclock.Duration, notBefore simclock.Time) simclock.Time {
	edges := make([]edge, 0, 2*len(c.bookings))
	for _, b := range c.bookings {
		if b.End > notBefore {
			edges = append(edges, edge{b.Start, b.RateBps}, edge{b.End, -b.RateBps})
		}
	}
	sortEdges(edges)
	at, cur := notBefore, 0.0
	for i := 0; i < len(edges); {
		t := edges[i].at
		for ; i < len(edges) && edges[i].at == t; i++ {
			cur += edges[i].delta
		}
		// cur is booked throughout [t, next).
		if i == len(edges) || t >= at.Add(dur) {
			break
		}
		if next := edges[i].at; next > at && math.Max(0, c.capacity-cur) < rateBps-1e-9 {
			at = next
		}
	}
	return at
}

// Release frees every booking held under id and returns them, so that a
// caller can Put them back exactly. It is idempotent.
func (c *Calendar) Release(id ReservationID) []Reservation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.removeLocked(func(b Reservation) bool { return b.ID == id })
}

// removeLocked drops the bookings that match and returns them.
func (c *Calendar) removeLocked(match func(Reservation) bool) []Reservation {
	var removed []Reservation
	kept := c.bookings[:0]
	for _, b := range c.bookings {
		if match(b) {
			removed = append(removed, b)
		} else {
			kept = append(kept, b)
		}
	}
	c.bookings = kept
	return removed
}

// Put adds bookings as given, IDs included, without an admission
// check. It is for a caller that puts back what Release returned, or
// that found the headroom itself under a lock covering every calendar
// it books: the OSCARS ledger books a path's links that way.
func (c *Calendar) Put(rs ...Reservation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bookings = append(c.bookings, rs...)
}

// Prune drops every booking that ended at or before cutoff, returning
// how many were dropped. A calendar driven by wall-clock time accretes
// expired bookings forever without it — they no longer constrain any
// present or future interval, but every Available sweep still walks
// them.
func (c *Calendar) Prune(cutoff simclock.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.removeLocked(func(b Reservation) bool { return b.End <= cutoff }))
}

// ScheduledOutcome describes one transfer run under scheduling.
type ScheduledOutcome struct {
	Reservation Reservation
	// WaitSec is how long the transfer was delayed past its request time.
	WaitSec float64
	// ThroughputBps is the guaranteed (and therefore realized) rate.
	ThroughputBps float64
}

// ScheduleTransfers places a batch of transfer requests
// (request time, size, desired rate) on the calendar with
// earliest-feasible-slot placement and returns their outcomes. It is the
// counterfactual for the paper's NERSC–ANL contention experiment: the
// same workload with server capacity reserved up front runs at its
// reserved rate with zero throughput variance from contention, trading
// variance for bounded start delay.
func (c *Calendar) ScheduleTransfers(reqs []TransferRequest) ([]ScheduledOutcome, error) {
	out := make([]ScheduledOutcome, 0, len(reqs))
	for i, r := range reqs {
		if r.SizeBytes <= 0 || r.RateBps <= 0 {
			return nil, fmt.Errorf("dtnsched: request %d invalid", i)
		}
		dur := r.SizeBytes * 8 / r.RateBps
		res, err := c.ReserveEarliest(r.RateBps, dur, r.At)
		if err != nil {
			return nil, err
		}
		out = append(out, ScheduledOutcome{
			Reservation:   res,
			WaitSec:       math.Max(0, float64(res.Start.Sub(r.At))),
			ThroughputBps: r.RateBps,
		})
	}
	return out, nil
}

// TransferRequest is one transfer to place on the calendar.
type TransferRequest struct {
	At        simclock.Time
	SizeBytes float64
	RateBps   float64
}
