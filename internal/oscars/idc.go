package oscars

import (
	"errors"
	"fmt"
	"math"

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
}

// Circuit is an admitted reservation and, once provisioned, a live VC.
type Circuit struct {
	ID      CircuitID
	Request Request
	Path    topo.Path

	state         State
	provisionedAt simclock.Time
}

// State returns the circuit's lifecycle state.
func (c *Circuit) State() State { return c.state }

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
// concurrency-safe.) Callers keep the *Circuit that CreateReservation
// returns; the IDC holds no index of its own.
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
}

// NewIDC creates an IDC over the engine and ledger.
func NewIDC(domain string, eng *simclock.Engine, ledger *Ledger, model SetupModel) (*IDC, error) {
	if eng == nil || ledger == nil {
		return nil, errors.New("oscars: nil engine or ledger")
	}
	if model != BatchedSignaling && model != HardwareSignaling {
		return nil, errors.New("oscars: unknown setup model")
	}
	return &IDC{Domain: domain, eng: eng, ledger: ledger, model: model}, nil
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
		math.Ceil(float64(start)/float64(batchInterval)))
	return boundary.Add(routerConfigTime)
}

// CreateReservation admits a reservation: computes a path with guaranteed
// bandwidth over [Start, End), books it, and schedules provisioning and
// teardown.
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
	path, err := idc.ledger.Book(idc.nextID+1, req.Src, req.Dst, req.RateBps, req.Start, req.End)
	if err != nil {
		return nil, fmt.Errorf("oscars: no feasible path: %w", err)
	}
	idc.nextID++
	c := &Circuit{ID: idc.nextID, Request: req, Path: path, state: Reserved}
	idc.scheduleProvision(c, idc.provisionTime(now, req.Start))
	return c, nil
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
		// delay consumed the whole window).
		end := c.Request.End
		if end < idc.eng.Now() {
			end = idc.eng.Now()
		}
		idc.eng.MustAt(end, func() { idc.teardownIfDue(c) })
	})
}

// Modify atomically re-books a reservation with a new rate and/or end
// time (the OSCARS modifyReservation operation). Only circuits that have
// not finished can be modified; an Active circuit's new booking starts
// now. Ledger.Book recomputes the path with the circuit's own bookings
// lifted out, so shrinking a reservation always succeeds and growing one
// succeeds when headroom exists; on failure the original bookings stand
// exactly as they were.
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
	path, err := idc.ledger.Book(c.ID, c.Request.Src, c.Request.Dst, newRateBps, start, newEnd)
	if err != nil {
		return fmt.Errorf("oscars: modify rejected: %w", err)
	}
	c.Path = path
	c.Request.RateBps = newRateBps
	c.Request.End = newEnd
	// An active circuit's teardown event is armed for the old end; arm
	// another for the new end (the one that fires when the circuit is
	// due wins, the rest lapse).
	if c.state == Active {
		at := newEnd
		if at < idc.eng.Now() {
			at = idc.eng.Now()
		}
		idc.eng.MustAt(at, func() { idc.teardownIfDue(c) })
	}
	return nil
}

// teardownIfDue releases an active circuit whose end time has arrived.
// An event armed for an end that a Modify has since moved later lapses:
// the Modify armed another for the new end.
func (idc *IDC) teardownIfDue(c *Circuit) {
	if c.state == Active && c.Request.End <= idc.eng.Now() {
		idc.release(c)
	}
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
		idc.ledger.Release(c.ID)
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
	idc.ledger.Release(c.ID)
	if idc.OnRelease != nil {
		idc.OnRelease(c)
	}
}
