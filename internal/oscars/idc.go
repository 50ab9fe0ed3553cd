package oscars

import (
	"errors"
	"fmt"
	"sync"

	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// CircuitID identifies a reservation/circuit within one IDC.
type CircuitID int64

// State is a circuit's lifecycle state.
type State int

const (
	// Reserved: admitted by the scheduler, not yet provisioned.
	Reserved State = iota
	// Provisioning: signaling sent to routers, circuit not yet usable.
	Provisioning
	// Active: provisioned end to end and carrying traffic.
	Active
	// Released: torn down at end time or by cancellation after activation.
	Released
	// Cancelled: withdrawn before provisioning.
	Cancelled
)

func (s State) String() string {
	switch s {
	case Reserved:
		return "RESERVED"
	case Provisioning:
		return "PROVISIONING"
	case Active:
		return "ACTIVE"
	case Released:
		return "RELEASED"
	case Cancelled:
		return "CANCELLED"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// SetupModel selects the provisioning latency regime.
type SetupModel int

const (
	// BatchedSignaling models the deployed OSCARS IDC: provisioning
	// requests are batched and dispatched at whole-minute boundaries, so a
	// createReservation for immediate use waits up to a minute (the paper:
	// "minimally 1 min").
	BatchedSignaling SetupModel = iota
	// HardwareSignaling models VC setup message processing in hardware:
	// one cross-country round trip, ~50 ms (the paper's aggressive case).
	HardwareSignaling
)

// setup latency constants.
const (
	batchInterval    = simclock.Minute
	routerConfigTime = simclock.Duration(2)      // per-batch router work
	hardwareSetup    = 50 * simclock.Millisecond // cross-country RTT
)

// Request is a createReservation message: endpoints, rate, and schedule,
// exactly the parameter set the paper lists (startTime, endTime,
// bandwidth, circuit endpoint addresses).
type Request struct {
	Src, Dst topo.NodeID
	RateBps  float64
	Start    simclock.Time
	End      simclock.Time
	// MessageSignaling selects explicit createPath provisioning instead of
	// automatic signaling; the caller must invoke CreatePath itself.
	MessageSignaling bool
}

// Circuit is an admitted reservation and, once provisioned, a live VC.
type Circuit struct {
	ID      CircuitID
	Request Request
	Path    topo.Path

	state         State
	provisionedAt simclock.Time
	releasedAt    simclock.Time
}

// State returns the circuit's lifecycle state.
func (c *Circuit) State() State { return c.state }

// ProvisionedAt returns when the circuit became Active (valid once Active
// or Released).
func (c *Circuit) ProvisionedAt() simclock.Time { return c.provisionedAt }

// ReleasedAt returns when the circuit was torn down (valid once Released).
func (c *Circuit) ReleasedAt() simclock.Time { return c.releasedAt }

// SetupDelay returns how long after the requested start the circuit became
// usable.
func (c *Circuit) SetupDelay() simclock.Duration {
	return c.provisionedAt.Sub(c.Request.Start)
}

// IDC is the inter-domain controller: it owns a ledger, admits
// reservations, and drives circuit provisioning and teardown on the
// simulation engine.
//
// IDC methods must be called from the simulation goroutine. (The
// wall-clock daemon in cmd/oscarsd wraps only the Ledger, which is
// concurrency-safe.)
type IDC struct {
	Domain string

	eng    *simclock.Engine
	ledger *Ledger
	model  SetupModel
	nextID CircuitID

	// OnActive and OnRelease, when set, run inside the event loop as
	// circuits come up and go down; the netsim integration uses them to
	// attach and detach guaranteed-rate flows.
	OnActive  func(*Circuit)
	OnRelease func(*Circuit)

	mu       sync.Mutex
	circuits map[CircuitID]*Circuit
}

// NewIDC creates an IDC over the engine and ledger.
func NewIDC(domain string, eng *simclock.Engine, ledger *Ledger, model SetupModel) (*IDC, error) {
	if eng == nil || ledger == nil {
		return nil, errors.New("oscars: nil engine or ledger")
	}
	if model != BatchedSignaling && model != HardwareSignaling {
		return nil, errors.New("oscars: unknown setup model")
	}
	return &IDC{
		Domain:   domain,
		eng:      eng,
		ledger:   ledger,
		model:    model,
		circuits: make(map[CircuitID]*Circuit),
	}, nil
}

// Ledger returns the IDC's bandwidth ledger.
func (idc *IDC) Ledger() *Ledger { return idc.ledger }

// provisionTime computes when a circuit requested now for the given start
// becomes usable under the signaling model.
func (idc *IDC) provisionTime(now, start simclock.Time) simclock.Time {
	if start < now {
		start = now
	}
	if idc.model == HardwareSignaling {
		return start.Add(hardwareSetup)
	}
	// Batched: the IDC dispatches the batch at the first whole-minute
	// boundary at or after the start time, then routers take
	// routerConfigTime to install the circuit.
	boundary := simclock.Time(float64(batchInterval) *
		ceilDiv(float64(start), float64(batchInterval)))
	return boundary.Add(routerConfigTime)
}

func ceilDiv(x, unit float64) float64 {
	q := x / unit
	iq := float64(int64(q))
	if q > iq {
		iq++
	}
	return iq
}

// CreateReservation admits a reservation: computes a path with guaranteed
// bandwidth over [Start, End), books it, and (unless MessageSignaling)
// schedules automatic provisioning and teardown.
func (idc *IDC) CreateReservation(req Request) (*Circuit, error) {
	now := idc.eng.Now()
	if req.RateBps <= 0 {
		return nil, errors.New("oscars: rate must be positive")
	}
	if req.End <= req.Start {
		return nil, errors.New("oscars: endTime must follow startTime")
	}
	if req.Start < now {
		return nil, fmt.Errorf("oscars: startTime %v in the past (now %v)", req.Start, now)
	}
	path, err := idc.ledger.PathWithBandwidth(req.Src, req.Dst, req.RateBps, req.Start, req.End)
	if err != nil {
		return nil, fmt.Errorf("oscars: no feasible path: %w", err)
	}
	idc.mu.Lock()
	idc.nextID++
	c := &Circuit{ID: idc.nextID, Request: req, Path: path, state: Reserved}
	idc.circuits[c.ID] = c
	idc.mu.Unlock()
	if err := idc.ledger.book(path, req.RateBps, req.Start, req.End, c.ID); err != nil {
		idc.mu.Lock()
		delete(idc.circuits, c.ID)
		idc.mu.Unlock()
		return nil, err
	}
	if !req.MessageSignaling {
		idc.scheduleProvision(c, idc.provisionTime(now, req.Start))
	}
	return c, nil
}

// CreatePath triggers provisioning for a message-signaled reservation (the
// explicit createPath message of the OSCARS API).
func (idc *IDC) CreatePath(c *Circuit) error {
	if c == nil {
		return errors.New("oscars: nil circuit")
	}
	if !c.Request.MessageSignaling {
		return errors.New("oscars: circuit uses automatic signaling")
	}
	if c.state != Reserved {
		return fmt.Errorf("oscars: createPath in state %v", c.state)
	}
	idc.scheduleProvision(c, idc.provisionTime(idc.eng.Now(), c.Request.Start))
	return nil
}

func (idc *IDC) scheduleProvision(c *Circuit, at simclock.Time) {
	c.state = Provisioning
	idc.eng.MustAt(at, func() {
		if c.state != Provisioning {
			return // cancelled meanwhile
		}
		c.state = Active
		c.provisionedAt = idc.eng.Now()
		if idc.OnActive != nil {
			idc.OnActive(c)
		}
		// Teardown at the scheduled end (or immediately if the setup
		// delay consumed the whole window). The event re-checks the end
		// time when it fires: Modify may have extended the circuit, in
		// which case it re-arms for the new end.
		end := c.Request.End
		if end < idc.eng.Now() {
			end = idc.eng.Now()
		}
		idc.eng.MustAt(end, func() { idc.teardownIfDue(c) })
	})
}

// Modify atomically re-books a reservation with a new rate and/or end
// time (the OSCARS modifyReservation operation). Only circuits that have
// not finished can be modified; the path is recomputed against the ledger
// with the circuit's own bookings released first, so shrinking a
// reservation always succeeds and growing one succeeds when headroom
// exists. On failure the original booking is restored untouched.
func (idc *IDC) Modify(c *Circuit, newRateBps float64, newEnd simclock.Time) error {
	if c == nil {
		return errors.New("oscars: nil circuit")
	}
	if newRateBps <= 0 {
		return errors.New("oscars: rate must be positive")
	}
	switch c.state {
	case Reserved, Provisioning, Active:
	default:
		return fmt.Errorf("oscars: cannot modify circuit in state %v", c.state)
	}
	start := c.Request.Start
	if c.state == Active {
		start = idc.eng.Now()
	}
	if newEnd <= start {
		return errors.New("oscars: new end precedes the effective start")
	}
	old := c.Request
	idc.ledger.release(c.ID)
	path, err := idc.ledger.PathWithBandwidth(old.Src, old.Dst, newRateBps, start, newEnd)
	if err == nil {
		err = idc.ledger.book(path, newRateBps, start, newEnd, c.ID)
	}
	if err != nil {
		// Restore the original booking; it fit before, so it fits now.
		restoreStart := old.Start
		if c.state == Active {
			restoreStart = idc.eng.Now()
		}
		if rbErr := idc.ledger.book(c.Path, old.RateBps, restoreStart, old.End, c.ID); rbErr != nil {
			return fmt.Errorf("oscars: modify failed (%v) and rollback failed: %w", err, rbErr)
		}
		return fmt.Errorf("oscars: modify rejected: %w", err)
	}
	c.Path = path
	c.Request.RateBps = newRateBps
	c.Request.End = newEnd
	// An active circuit's teardown event is armed for the old end; arm
	// another for the new end (whichever fires when due wins, the rest
	// no-op).
	if c.state == Active {
		at := newEnd
		if at < idc.eng.Now() {
			at = idc.eng.Now()
		}
		idc.eng.MustAt(at, func() { idc.teardownIfDue(c) })
	}
	return nil
}

// teardownIfDue releases an active circuit whose end time has arrived,
// re-arming itself when the circuit was extended after this event was
// scheduled.
func (idc *IDC) teardownIfDue(c *Circuit) {
	if c.state != Active {
		return
	}
	if c.Request.End > idc.eng.Now() {
		idc.eng.MustAt(c.Request.End, func() { idc.teardownIfDue(c) })
		return
	}
	idc.release(c)
}

// Cancel withdraws a reservation. A Reserved or Provisioning circuit is
// cancelled outright; an Active circuit is released early.
func (idc *IDC) Cancel(c *Circuit) error {
	if c == nil {
		return errors.New("oscars: nil circuit")
	}
	switch c.state {
	case Reserved, Provisioning:
		c.state = Cancelled
		idc.ledger.release(c.ID)
		return nil
	case Active:
		idc.release(c)
		return nil
	default:
		return fmt.Errorf("oscars: cannot cancel circuit in state %v", c.state)
	}
}

// release tears an Active circuit down.
func (idc *IDC) release(c *Circuit) {
	if c.state != Active {
		return
	}
	c.state = Released
	c.releasedAt = idc.eng.Now()
	idc.ledger.release(c.ID)
	if idc.OnRelease != nil {
		idc.OnRelease(c)
	}
}

// Circuit returns the circuit with the given ID, or nil.
func (idc *IDC) Circuit(id CircuitID) *Circuit {
	idc.mu.Lock()
	defer idc.mu.Unlock()
	return idc.circuits[id]
}
