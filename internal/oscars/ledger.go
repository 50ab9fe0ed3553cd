// Package oscars implements an OSCARS-style inter-domain controller (IDC)
// for dynamic virtual circuits: an advance-reservation bandwidth ledger,
// constrained path computation, admission control, and the two circuit
// provisioning models the paper discusses — the deployed batched signaling
// with its ~1-minute setup delay, and hypothetical hardware signaling at
// ~50 ms (round-trip propagation across the US).
package oscars

import (
	"errors"
	"fmt"
	"sync"

	"gftpvc/internal/dtnsched"
	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// Ledger tracks admitted advance reservations per directed link. It is the
// persistent state of the IDC's scheduler and can also be used standalone
// (the oscarsd daemon wraps it with wall-clock times).
//
// Each link's bookings live on its own dtnsched.Calendar over the link's
// reservable share, keyed by circuit ID; the ledger keeps only the path
// work — PathWithBandwidth, and booking every link of a path or none
// under its own lock, which also guards its calendars.
//
// Ledger is safe for concurrent use.
type Ledger struct {
	// reservableFraction caps how much of each link's capacity may be
	// booked for circuits (providers keep headroom for IP-routed traffic).
	reservableFraction float64
	topo               *topo.Topology

	mu    sync.Mutex
	links map[topo.LinkID]*dtnsched.Calendar
}

// NewLedger creates a ledger over the topology. reservableFraction must be
// in (0, 1]; ESnet-like deployments keep some capacity for IP service.
func NewLedger(tp *topo.Topology, reservableFraction float64) (*Ledger, error) {
	if tp == nil {
		return nil, errors.New("oscars: nil topology")
	}
	if reservableFraction <= 0 || reservableFraction > 1 {
		return nil, errors.New("oscars: reservable fraction must be in (0,1]")
	}
	return &Ledger{
		reservableFraction: reservableFraction,
		topo:               tp,
		links:              make(map[topo.LinkID]*dtnsched.Calendar),
	}, nil
}

// Topology returns the topology the ledger books against.
func (l *Ledger) Topology() *topo.Topology { return l.topo }

// Available returns the guaranteed-available bandwidth on the directed link
// throughout [start, end): the reservable share of capacity minus the peak
// of overlapping bookings.
func (l *Ledger) Available(link *topo.Link, start, end simclock.Time) (float64, error) {
	if link == nil {
		return 0, errors.New("oscars: nil link")
	}
	if end <= start {
		return 0, errors.New("oscars: empty interval")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.availableLocked(link, start, end), nil
}

// calendarLocked returns the link's calendar, creating it on first use.
// topo admits only positive link capacities and NewLedger only a
// positive fraction, so the calendar's capacity is valid.
func (l *Ledger) calendarLocked(link *topo.Link) *dtnsched.Calendar {
	cal := l.links[link.ID]
	if cal == nil {
		cal, _ = dtnsched.New(link.CapacityBps * l.reservableFraction)
		l.links[link.ID] = cal
	}
	return cal
}

// availableLocked is Available for a validated, non-empty interval.
func (l *Ledger) availableLocked(link *topo.Link, start, end simclock.Time) float64 {
	avail, _ := l.calendarLocked(link).Available(start, end)
	return avail
}

// pathLocked is PathWithBandwidth for validated arguments.
func (l *Ledger) pathLocked(src, dst topo.NodeID, rateBps float64, start, end simclock.Time) (topo.Path, error) {
	return l.topo.ConstrainedShortestPath(src, dst, func(link *topo.Link) bool {
		return l.availableLocked(link, start, end) >= rateBps-1e-9
	})
}

// putLocked books the claim on every link of a path whose headroom the
// caller has checked under the same hold of the lock.
func (l *Ledger) putLocked(path topo.Path, rateBps float64, start, end simclock.Time, id CircuitID) {
	r := dtnsched.Reservation{ID: dtnsched.ReservationID(id), RateBps: rateBps, Start: start, End: end}
	for _, link := range path {
		l.calendarLocked(link).Put(r)
	}
}

// liftLocked removes the circuit's bookings from every link and returns
// them by calendar, so that a refused Book can put them back exactly.
func (l *Ledger) liftLocked(id CircuitID) map[*dtnsched.Calendar][]dtnsched.Reservation {
	var lifted map[*dtnsched.Calendar][]dtnsched.Reservation
	for _, cal := range l.links {
		if bs := cal.Release(dtnsched.ReservationID(id)); len(bs) > 0 {
			if lifted == nil {
				lifted = make(map[*dtnsched.Calendar][]dtnsched.Reservation)
			}
			lifted[cal] = bs
		}
	}
	return lifted
}

// validClaim checks the arguments every booking operation takes.
func validClaim(rateBps float64, start, end simclock.Time) error {
	if rateBps <= 0 {
		return errors.New("oscars: rate must be positive")
	}
	if end <= start {
		return errors.New("oscars: empty interval")
	}
	return nil
}

// Reserve books rateBps on every link of path throughout [start, end)
// under the given circuit ID. It is atomic: either every link is booked or
// none.
func (l *Ledger) Reserve(path topo.Path, rateBps float64, start, end simclock.Time, id CircuitID) error {
	if err := validClaim(rateBps, start, end); err != nil {
		return err
	}
	if len(path) == 0 {
		return errors.New("oscars: empty path")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, link := range path {
		if l.availableLocked(link, start, end) < rateBps-1e-9 {
			return fmt.Errorf("oscars: link %s cannot fit %.0f bps in [%v,%v)",
				link.ID, rateBps, start, end)
		}
	}
	l.putLocked(path, rateBps, start, end, id)
	return nil
}

// Release removes all bookings held by the circuit. It is idempotent.
func (l *Ledger) Release(id CircuitID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.liftLocked(id)
}

// Prune drops, from every link's calendar, the bookings that ended at
// or before cutoff. A ledger on the wall clock (the oscarsd daemon)
// would otherwise keep every circuit that ended without a cancel, and
// every later path search would sweep over it.
func (l *Ledger) Prune(cutoff simclock.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, cal := range l.links {
		cal.Prune(cutoff)
	}
}

// Book books the circuit at rateBps over [start, end) on the
// minimum-delay path from src to dst that fits, in one critical section
// — the createReservation and modifyReservation operations of both the
// IDC and the oscarsd daemon. It first lifts out whatever the circuit
// already holds, so a modify is re-pathed against the ledger without
// its own old booking; when no path fits, it puts the lifted bookings
// back exactly as they were, which cannot fail, so a refused Book leaves
// the ledger as it found it and a modified circuit still standing.
func (l *Ledger) Book(id CircuitID, src, dst topo.NodeID, rateBps float64, start, end simclock.Time) (topo.Path, error) {
	if err := validClaim(rateBps, start, end); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lifted := l.liftLocked(id)
	path, err := l.pathLocked(src, dst, rateBps, start, end)
	if err != nil {
		for cal, bs := range lifted {
			cal.Put(bs...)
		}
		return nil, err
	}
	l.putLocked(path, rateBps, start, end, id)
	return path, nil
}

// PathWithBandwidth computes the minimum-delay path from src to dst whose
// every link can guarantee rateBps throughout [start, end). This is the
// OSCARS path computation element: explicit route selection based on
// current reservations, one of the paper's three VC advantages.
func (l *Ledger) PathWithBandwidth(src, dst topo.NodeID, rateBps float64, start, end simclock.Time) (topo.Path, error) {
	if err := validClaim(rateBps, start, end); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pathLocked(src, dst, rateBps, start, end)
}
