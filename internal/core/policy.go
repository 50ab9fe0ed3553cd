package core

import "time"

// ActionKind is what SessionPolicy asks its caller to do for one event.
type ActionKind int

const (
	// ActStayIP: run the job best-effort; no control-plane call.
	ActStayIP ActionKind = iota
	// ActReserve: book a circuit until End, then report Booked or PinIP.
	ActReserve
	// ActExtend: re-book the held circuit until End, then report Booked,
	// PinIP if the circuit is gone, or nothing if refused.
	ActExtend
	// ActRide: the held circuit's booking already covers the job.
	ActRide
	// ActCancel: the session is over; release its circuit.
	ActCancel
)

// Action is one SessionPolicy verdict.
type Action struct {
	Kind ActionKind
	// End is the booking end for ActReserve and ActExtend, and when the
	// session's last job ended for ActCancel.
	End time.Time
	// Reason explains an ActStayIP verdict for a session pinned to IP.
	Reason string
}

// SessionPolicy is the paper's VC rule, run online for one session
// between one endpoint pair. A session is a run of jobs whose gaps are
// at most Gap; it reserves a circuit once the bytes it has moved plus
// the job at hand would take at least OverheadFactor setup delays at
// the sizing rate (the Table IV rule). The policy has no clock, lock or
// client: callers pass the time with every event and perform the
// Action it returns. Copy a configured zero-state policy to open a
// session; replace it once Expired.
type SessionPolicy struct {
	// Feasibility sets the threshold; each Start's sizing rate stands in
	// for its ReferenceThroughputBps.
	Feasibility FeasibilityConfig
	// Gap is the paper's g; HoldSlack pads each booking past the
	// predicted need.
	Gap, HoldSlack time.Duration

	active   int
	horizon  time.Time // latest job end: the gap runs from here
	bytes    int64
	booked   time.Time // end of the held circuit's booking (zero: none)
	pinned   bool
	fallback string
}

// Start admits one job of sizeHint bytes at now, predicted to run at
// rateBps.
func (p *SessionPolicy) Start(now time.Time, sizeHint int64, rateBps float64) Action {
	p.active++
	need := time.Duration(float64(sizeHint) * 8 / rateBps * float64(time.Second))
	f := p.Feasibility
	f.ReferenceThroughputBps = rateBps
	switch {
	case p.pinned:
		return Action{Kind: ActStayIP, Reason: p.fallback}
	case !p.booked.IsZero():
		if end := now.Add(need + p.HoldSlack); end.After(p.booked) {
			return Action{Kind: ActExtend, End: end.Add(p.Gap)}
		}
		return Action{Kind: ActRide}
	case float64(p.bytes+sizeHint) < f.MinSuitableSessionBytes():
		return Action{Kind: ActStayIP}
	default:
		return Action{Kind: ActReserve, End: now.Add(need + p.HoldSlack + p.Gap + f.SetupDelay)}
	}
}

// Booked records that the ActReserve or ActExtend booking was made.
func (p *SessionPolicy) Booked(end time.Time) { p.booked = end }

// PinIP keeps the session on IP for the rest of its life, dropping any
// held circuit: a refused reservation, a lost circuit, or an unroutable
// pair. reason becomes later ActStayIP verdicts' Reason.
func (p *SessionPolicy) PinIP(reason string) {
	p.booked, p.pinned, p.fallback = time.Time{}, true, reason
}

// End records a job that finished at now having moved bytes.
func (p *SessionPolicy) End(now time.Time, bytes int64) {
	p.active--
	p.bytes += bytes
	if now.After(p.horizon) {
		p.horizon = now
	}
}

// Expired reports whether the session is over at now: no job running,
// and idle strictly longer than Gap since the last one ended.
func (p *SessionPolicy) Expired(now time.Time) bool {
	return p.active == 0 && !p.horizon.IsZero() && now.Sub(p.horizon) > p.Gap
}

// Close ends the session: ActCancel when it holds a circuit to release,
// else ActStayIP.
func (p *SessionPolicy) Close() Action {
	a := Action{Kind: ActStayIP, End: p.horizon}
	if !p.booked.IsZero() {
		a.Kind, p.booked = ActCancel, time.Time{}
	}
	return a
}
