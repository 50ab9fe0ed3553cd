package gridftp

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
)

// TransferOptions bundles the per-transfer tunables — deadlines,
// streaming window, trace binding, and rate shaping — that accrete on a
// control channel between jobs. Callers pass functional options either
// to ApplyOptions, which rebinds everything in one call (what a pool
// checkout does), or directly on the per-call transfer APIs
// (Retr/Stor/RetrTo/RetrToAt/StorFrom/StorFromAt), which apply them
// first and then run.
//
// Options persist on the client once applied — a per-call option is
// sugar for ApplyOptions followed by the call — because a control
// channel serves one job at a time and each checkout re-applies its
// job's options anyway.
type TransferOptions struct {
	control time.Duration // 0 keep, < 0 disable
	data    time.Duration // 0 keep, < 0 disable
	window  int           // 0 keep

	trace    *telemetry.TraceContext // nil keep; zero value clears
	rateBps  int64                   // meaningful when rateSet; <= 0 clears
	rateSet  bool
	burst    int64 // 0 keep (rate-derived default)
	limiter  *pacing.Limiter
	limSet   bool
	parallel int // 0 keep
}

// TransferOption mutates one TransferOptions field; see ApplyOptions.
type TransferOption func(*TransferOptions)

// WithTimeouts rebinds the control and data deadlines (zero keeps the
// current value; negative disables).
func WithTimeouts(control, data time.Duration) TransferOption {
	return func(o *TransferOptions) { o.control, o.data = control, data }
}

// WithTransferWindow rebinds the streaming reassembly window in bytes
// (see WithWindow; zero keeps the current value).
func WithTransferWindow(bytes int) TransferOption {
	return func(o *TransferOptions) { o.window = bytes }
}

// WithTransferTrace binds an end-to-end trace context to the session
// (SITE TRID to the server, silently degraded on servers that predate
// it). A zero TraceContext clears the binding without touching the
// wire.
func WithTransferTrace(tc telemetry.TraceContext) TransferOption {
	return func(o *TransferOptions) { o.trace = &tc }
}

// WithRate shapes this client's subsequent transfers to rateBps bits
// per second: every transfer mints a fresh per-transfer token bucket at
// this rate, and the server is asked to shape its own sending/receiving
// session to match (SITE RATE; servers that predate it degrade
// silently, leaving client-side shaping in force). rateBps <= 0 clears
// shaping — and tells the server so, if it was ever engaged, so a
// pooled channel cannot leak one job's rate into the next.
func WithRate(rateBps int64) TransferOption {
	return func(o *TransferOptions) { o.rateBps, o.rateSet = rateBps, true }
}

// WithRateBurst overrides the per-transfer bucket's burst in bytes
// (zero keeps the rate-derived default: ~25 ms of line rate, floored at
// pacing.DefaultBurstBytes).
func WithRateBurst(bytes int64) TransferOption {
	return func(o *TransferOptions) { o.burst = bytes }
}

// WithLimiter attaches a shared aggregate limiter composed into every
// subsequent transfer's pacing (on top of any WithRate per-transfer
// bucket). This is pure client-side shaping — nothing is advertised to
// the server — and is how a caller holds several concurrent transfers
// to one collective rate, or re-rates an in-flight bucket when a
// broker lease is extended. nil detaches.
func WithLimiter(l *pacing.Limiter) TransferOption {
	return func(o *TransferOptions) { o.limiter, o.limSet = l, true }
}

// WithParallel sets the number of parallel TCP streams for subsequent
// transfers (OPTS RETR Parallelism; zero keeps the current value).
func WithParallel(n int) TransferOption {
	return func(o *TransferOptions) { o.parallel = n }
}

// ApplyOptions rebinds the client's transfer state in one call — the
// single checkout-time rebind. Local-only options (timeouts, window, limiter)
// never touch the wire; trace and rate bindings are advertised to the
// server when set (SITE TRID / SITE RATE) and degrade silently on
// servers that predate them. Unset options keep their current values.
func (c *Client) ApplyOptions(opts ...TransferOption) error {
	var o TransferOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	// A pooled connection outlives any one job, so each checkout
	// re-applies the job's own deadlines (negative disables).
	if o.control != 0 {
		c.controlTimeout = max(o.control, 0)
	}
	if o.data != 0 {
		c.dataTimeout = max(o.data, 0)
	}
	if o.window != 0 {
		if o.window < 1 {
			return errors.New("gridftp: window must be positive")
		}
		c.windowSize = o.window
	}
	if o.limSet {
		c.aggLimiter = o.limiter
	}
	if o.burst != 0 {
		c.rateBurst = o.burst
	}
	if o.rateSet {
		if err := c.applyRate(o.rateBps); err != nil {
			return err
		}
	}
	if o.parallel != 0 {
		if err := c.SetParallelism(o.parallel); err != nil {
			return err
		}
	}
	if o.trace != nil {
		if err := c.setTrace(*o.trace); err != nil {
			return err
		}
	}
	return nil
}

// applyRate records the client-side shaping rate and advertises it to
// the server. SITE RATE 0 (clear) only goes on the wire if this channel
// previously engaged server-side shaping — an unshaped session stays
// byte-identical to a pre-pacing client.
func (c *Client) applyRate(rateBps int64) error {
	if rateBps < 0 {
		rateBps = 0
	}
	c.rateBps = rateBps
	if rateBps == 0 && !c.rateWired {
		return nil
	}
	_, err := c.do("SITE", "SITE RATE "+strconv.FormatInt(rateBps, 10), 200)
	if err != nil {
		var pe *ProtocolError
		if errors.As(err, &pe) && !c.rateWired {
			// Old server: SITE unimplemented (502) or RATE unknown (500).
			// Client-side pacing still enforces the rate locally. Once the
			// server has accepted a SITE RATE, though, a rejection is a
			// real failure — swallowing it would leave the session shaped
			// to the previous rate with the caller none the wiser.
			return nil
		}
		return err
	}
	c.rateWired = rateBps > 0
	return nil
}

// xferLimiter mints the effective limiter for one transfer: a fresh
// per-transfer bucket at the client's configured rate (fresh so each
// transfer starts with a full burst) composed with the shared aggregate
// limiter, or nil when shaping is off — the unshaped fast path is a
// nil test.
func (c *Client) xferLimiter() *pacing.Limiter {
	b := pacing.NewBucket(c.rateBps, c.rateBurst)
	if b == nil && c.aggLimiter == nil {
		return nil
	}
	return c.aggLimiter.With(b)
}

// applyCallOptions is the per-call prologue: options passed on a
// transfer API are applied (and persist) before the transfer runs.
func (c *Client) applyCallOptions(opts []TransferOption) error {
	if len(opts) == 0 {
		return nil
	}
	if err := c.ApplyOptions(opts...); err != nil {
		return fmt.Errorf("gridftp: applying transfer options: %w", err)
	}
	return nil
}
