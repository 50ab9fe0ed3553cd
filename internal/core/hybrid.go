package core

import (
	"errors"
	"fmt"
	"time"

	"gftpvc/internal/netsim"
	"gftpvc/internal/oscars"
	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// ServiceKind is the transport service a session was assigned.
type ServiceKind int

const (
	// IPRouted is the default best-effort service.
	IPRouted ServiceKind = iota
	// DynamicVC is a rate-guaranteed OSCARS circuit.
	DynamicVC
)

func (k ServiceKind) String() string {
	if k == DynamicVC {
		return "dynamic-vc"
	}
	return "ip-routed"
}

// HybridConfig parameterizes the decision engine.
type HybridConfig struct {
	// Feasibility is the amortization rule (setup delay, factor,
	// reference throughput).
	Feasibility FeasibilityConfig
	// CircuitRateBps is the rate requested for each circuit; deployments
	// size this near the session's expected throughput.
	CircuitRateBps float64
	// HoldSlack extends the circuit beyond the predicted session duration
	// to absorb the g-gap between back-to-back transfers.
	HoldSlack simclock.Duration
}

// Plan is the engine's verdict for one session-sized request.
type Plan struct {
	Service ServiceKind
	// PredictedDuration is the hypothetical session duration at the
	// reference throughput.
	PredictedDuration simclock.Duration
	// Circuit is set when Service is DynamicVC and admission succeeded.
	Circuit *oscars.Circuit
	// FallbackReason explains an IPRouted verdict for a VC-eligible
	// session (admission rejection).
	FallbackReason string
}

// HybridEngine assigns sessions to services and provisions circuits. It is
// bound to one IDC and one network path's endpoints.
type HybridEngine struct {
	cfg HybridConfig
	idc *oscars.IDC

	// Decisions taken, for post-hoc evaluation.
	plans []*Plan
}

// NewHybridEngine builds an engine over an IDC.
func NewHybridEngine(cfg HybridConfig, idc *oscars.IDC) (*HybridEngine, error) {
	if err := cfg.Feasibility.Validate(); err != nil {
		return nil, err
	}
	if cfg.CircuitRateBps <= 0 {
		return nil, errors.New("core: circuit rate must be positive")
	}
	if cfg.HoldSlack < 0 {
		return nil, errors.New("core: negative hold slack")
	}
	if idc == nil {
		return nil, errors.New("core: nil IDC")
	}
	return &HybridEngine{cfg: cfg, idc: idc}, nil
}

// Decide plans service for a session of totalBytes between src and dst
// starting now, by running SessionPolicy on it as one gap-less job of
// known size. VC-eligible sessions get a reservation request; if the IDC
// rejects it (no bandwidth on any path), the plan falls back to IP-routed
// service, which is always available.
func (e *HybridEngine) Decide(src, dst topo.NodeID, totalBytes float64, now simclock.Time) (*Plan, error) {
	if totalBytes <= 0 {
		return nil, errors.New("core: session size must be positive")
	}
	ref := e.cfg.Feasibility.ReferenceThroughputBps
	plan := &Plan{PredictedDuration: simclock.Duration(totalBytes * 8 / ref)}
	e.plans = append(e.plans, plan)
	// A fresh session anchored at the zero instant: the booking end the
	// policy returns is the hold itself.
	pol := SessionPolicy{Feasibility: e.cfg.Feasibility,
		HoldSlack: time.Duration(float64(e.cfg.HoldSlack) * float64(time.Second))}
	act := pol.Start(time.Time{}, int64(totalBytes), ref)
	if act.Kind != ActReserve {
		return plan, nil
	}
	circuit, err := e.idc.CreateReservation(oscars.Request{Src: src, Dst: dst, RateBps: e.cfg.CircuitRateBps,
		Start: now, End: now.Add(simclock.Duration(act.End.Sub(time.Time{}).Seconds()))})
	if err != nil {
		plan.FallbackReason = fmt.Sprintf("admission failed: %v", err)
		return plan, nil
	}
	plan.Service, plan.Circuit = DynamicVC, circuit
	return plan, nil
}

// Plans returns every decision taken so far.
func (e *HybridEngine) Plans() []*Plan { return e.plans }

// Stats tallies the engine's decisions.
func (e *HybridEngine) Stats() (vc, ip, fallbacks int) {
	for _, p := range e.plans {
		switch {
		case p.Service == DynamicVC:
			vc++
		case p.FallbackReason != "":
			ip++
			fallbacks++
		default:
			ip++
		}
	}
	return vc, ip, fallbacks
}

// FlowOptionsFor translates a plan into netsim flow options: VC sessions
// run with the circuit's guaranteed rate, IP sessions best-effort.
func (p *Plan) FlowOptionsFor() netsim.FlowOptions {
	if p.Service == DynamicVC && p.Circuit != nil {
		return netsim.FlowOptions{GuaranteedBps: p.Circuit.Request.RateBps}
	}
	return netsim.FlowOptions{}
}
