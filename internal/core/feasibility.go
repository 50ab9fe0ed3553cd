// Package core implements the paper's primary contribution: deciding
// whether dynamic virtual-circuit service is usable and worthwhile for
// GridFTP workloads.
//
// The rule — a session is a run of transfers between one endpoint pair
// with gaps of at most g, and it suits a circuit when its duration at the
// reference throughput is at least ten setup delays — is applied
// offline by the feasibility analyzer (the Table IV methodology over
// sessions.Group's cut, at the dataset's third-quartile throughput) and
// online by SessionPolicy, a clock-free per-pair state machine with two
// users: the simulator's HybridEngine, which books its verdicts on an
// OSCARS IDC and falls back to IP when admission fails, and the live
// circuit broker (internal/vc/broker).
package core

import (
	"errors"
	"time"

	"gftpvc/internal/sessions"
	"gftpvc/internal/stats"
)

// FeasibilityConfig parameterizes the Table IV analysis.
type FeasibilityConfig struct {
	// SetupDelay is the dynamic-VC setup latency (1 min for the deployed
	// OSCARS IDC; 50 ms for hypothetical hardware signaling).
	SetupDelay time.Duration
	// OverheadFactor is how many times longer than the setup delay a
	// session must be; the paper uses 10 ("one-tenth or less of session
	// durations").
	OverheadFactor float64
	// ReferenceThroughputBps is the assumed session throughput. The paper
	// uses the third-quartile *transfer* throughput of the dataset, which
	// makes hypothetical durations optimistically short — a conservative
	// feasibility test.
	ReferenceThroughputBps float64
}

// Validate reports whether the configuration is usable.
func (c FeasibilityConfig) Validate() error {
	switch {
	case c.SetupDelay <= 0:
		return errors.New("core: setup delay must be positive")
	case c.OverheadFactor <= 0:
		return errors.New("core: overhead factor must be positive")
	case c.ReferenceThroughputBps <= 0:
		return errors.New("core: reference throughput must be positive")
	}
	return nil
}

// FeasibilityResult is one Table IV cell pair: the share of sessions that
// can amortize the setup delay, and the share of all transfers those
// sessions contain (the parenthesized numbers in the paper's table).
type FeasibilityResult struct {
	Sessions         int
	SuitableSessions int
	Transfers        int
	// SuitableTransfers counts transfers belonging to suitable sessions.
	SuitableTransfers int
	// MinSuitableSizeBytes is the smallest session size that passes the
	// rule (the paper's "sessions of sizes 42 MB or larger" remark).
	MinSuitableSizeBytes float64
}

// PercentSessions returns 100·SuitableSessions/Sessions.
func (r FeasibilityResult) PercentSessions() float64 {
	if r.Sessions == 0 {
		return 0
	}
	return 100 * float64(r.SuitableSessions) / float64(r.Sessions)
}

// PercentTransfers returns 100·SuitableTransfers/Transfers.
func (r FeasibilityResult) PercentTransfers() float64 {
	if r.Transfers == 0 {
		return 0
	}
	return 100 * float64(r.SuitableTransfers) / float64(r.Transfers)
}

// MinSuitableSessionBytes returns the smallest session size that satisfies
// the rule analytically: size ≥ factor · setup · throughput.
func (c FeasibilityConfig) MinSuitableSessionBytes() float64 {
	return c.OverheadFactor * c.SetupDelay.Seconds() * c.ReferenceThroughputBps / 8
}

// Analyze runs the Table IV methodology over grouped sessions.
func (c FeasibilityConfig) Analyze(ss []*sessions.Session) (FeasibilityResult, error) {
	if err := c.Validate(); err != nil {
		return FeasibilityResult{}, err
	}
	threshold := c.MinSuitableSessionBytes()
	res := FeasibilityResult{Sessions: len(ss), MinSuitableSizeBytes: threshold}
	for _, s := range ss {
		n := s.Count()
		res.Transfers += n
		if float64(s.SizeBytes()) >= threshold {
			res.SuitableSessions++
			res.SuitableTransfers += n
		}
	}
	return res, nil
}

// ReferenceThroughputFromRecordsBps computes the dataset's third-quartile
// transfer throughput, the reference rate the paper plugs into the
// analysis (682.2 Mbps for NCAR-NICS, 256.2 Mbps for SLAC-BNL).
func ReferenceThroughputFromRecordsBps(throughputsMbps []float64) (float64, error) {
	q3, err := stats.Quantile(throughputsMbps, 0.75)
	if err != nil {
		return 0, err
	}
	return q3 * 1e6, nil
}
