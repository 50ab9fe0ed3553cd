package gridftp

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
)

// Option sets one piece of a Client's state — deadlines, streaming
// window, dialer, telemetry, trace binding, rate shaping. It is the
// client's only option type: Dial, ApplyOptions (the one rebind a pool
// checkout does) and the variadic tail of every transfer call take the
// same values, apply them in order, and stop at the first error. An
// option that is not passed keeps the current value (at Dial, the
// default), and an applied option persists until overridden — a
// per-call option is ApplyOptions followed by the call — because a
// control channel serves one job at a time and each checkout re-applies
// its job's options anyway.
//
// Two placement rules, each enforced in one place:
//
//   - An option that must tell the server something — WithRate above
//     zero (SITE RATE), a non-zero WithTrace (SITE TRID) — needs a
//     logged-in session, so Dial rejects it; pass it to ApplyOptions or
//     a transfer call after Login. Their clearing forms (WithRate(0),
//     the zero TraceContext) touch no wire and are accepted anywhere.
//   - WithTelemetry is accepted only by Dial, where the client's
//     metrics and session span are built.
type Option func(*Client) error

// What an option can be refused with. errNoSession is what the command
// path reports before Dial has connected: an option tried to talk to
// the server from Dial.
var (
	errNoSession   = errors.New("gridftp: option needs a logged-in session: pass it after Login, not to Dial")
	errNotDialTime = errors.New("gridftp: WithTelemetry must be passed to Dial")
	errWindow      = errors.New("gridftp: window must be positive")
)

// ApplyOptions applies opts to the client in order. Local options
// (timeouts, window, dialer, limiter) never touch the wire; trace and
// rate bindings are advertised to the server when set and degrade
// silently on servers that predate them.
func (c *Client) ApplyOptions(opts ...Option) error {
	for _, o := range opts {
		if err := o(c); err != nil {
			return err
		}
	}
	return nil
}

// WithControlTimeout bounds every control-channel command write and
// reply read (default DefaultControlTimeout; <= 0 disables). When a
// transfer's error path must drain a pending status reply, the drain
// waits up to this long — keep it above the server's accept timeout or
// a rejected transfer may leave the channel desynced (the client then
// fails fast with ErrDesynced rather than corrupting replies).
func WithControlTimeout(d time.Duration) Option {
	return func(c *Client) error { c.controlTimeout = d; return nil }
}

// WithDataTimeout bounds each read or write on a data connection
// (default DefaultDataTimeout; <= 0 disables): a stalled sender or
// receiver surfaces as a timeout error instead of hanging the transfer.
func WithDataTimeout(d time.Duration) Option {
	return func(c *Client) error { c.dataTimeout = d; return nil }
}

// WithWindow sets the sliding reassembly window, in bytes, every
// retrieval delivers through (default DefaultWindowSize). The window
// bounds the client's peak receive memory (beyond the caller's own
// sink) and the worst-case duplicate bytes a resumed transfer
// re-delivers. It also sizes the upload chunks (window/4, clamped to
// [4KiB, 256KiB]) so a symmetrically configured receiver always accepts
// them.
func WithWindow(bytes int) Option {
	return func(c *Client) error {
		if bytes < 1 {
			return errWindow
		}
		c.windowSize = bytes
		return nil
	}
}

// WithDialFunc replaces the dialer used for the control and data
// connections; fault-injection tests use it to wrap connections.
func WithDialFunc(dial func(network, addr string) (net.Conn, error)) Option {
	return func(c *Client) error { c.dialFunc = dial; return nil }
}

// WithTelemetry attaches a telemetry hub: the client then records
// dial/transfer metrics, a session span (control_dial, auth, idle,
// teardown — the control-channel half of the paper's phase breakdown),
// and one span per transfer (data_setup, stream, teardown) with its
// wire byte count. Dial only: the metrics and the session span are
// built there, so attaching a hub later would instrument half a client.
func WithTelemetry(hub *telemetry.Hub) Option {
	return func(c *Client) error {
		if c.met != nil {
			return errNotDialTime
		}
		c.hub = hub
		return nil
	}
}

// WithTrace binds an end-to-end trace context to the session: the
// server is told via SITE TRID so its transfer spans and events link
// back to the caller's span, and this client's own transfer spans are
// tagged locally. A server that predates SITE TRID replies 500/502; the
// client degrades silently — local spans stay tagged, the server side
// simply contributes nothing to the trace. A zero TraceContext clears
// the binding without touching the wire, so untraced sessions remain
// byte-identical. Rebound per job on pooled connections.
func WithTrace(tc telemetry.TraceContext) Option {
	return func(c *Client) error {
		if tc.TraceID != "" && !tc.Valid() {
			return fmt.Errorf("gridftp: invalid trace context %q", tc.WireToken())
		}
		c.trace = tc
		if tc.TraceID == "" {
			return nil
		}
		_, err := c.site("TRID "+tc.WireToken(), true)
		return err
	}
}

// WithRate shapes this client's subsequent transfers to rateBps bits
// per second: every transfer mints a fresh per-transfer token bucket at
// this rate (burst: the rate-derived default, ~25 ms of line rate
// floored at pacing.DefaultBurstBytes), and the server is asked to
// shape its own sending/receiving session to match (SITE RATE; servers
// that predate it degrade silently, leaving client-side shaping in
// force). rateBps <= 0 clears shaping — and tells the server so, if it
// was ever engaged, so a pooled channel cannot leak one job's rate into
// the next; an unshaped session stays byte-identical to a pre-pacing
// client.
func WithRate(rateBps int64) Option {
	return func(c *Client) error {
		c.rateBps = max(rateBps, 0)
		if c.rateBps == 0 && !c.rateWired {
			return nil
		}
		// Once the server has accepted a SITE RATE, a rejection is a real
		// failure — swallowing it would leave the session shaped to the
		// previous rate with the caller none the wiser.
		accepted, err := c.site("RATE "+strconv.FormatInt(c.rateBps, 10), !c.rateWired)
		if accepted {
			c.rateWired = c.rateBps > 0
		}
		return err
	}
}

// WithLimiter attaches a shared aggregate limiter composed into every
// subsequent transfer's pacing (on top of any WithRate per-transfer
// bucket). This is pure client-side shaping — nothing is advertised to
// the server — and is how a caller holds several concurrent transfers
// to one collective rate, or re-rates an in-flight bucket when a
// broker lease is extended. nil detaches.
func WithLimiter(l *pacing.Limiter) Option {
	return func(c *Client) error { c.aggLimiter = l; return nil }
}

// site sends one SITE subcommand and reports whether the server took
// it. With degrade set, an old server's refusal — SITE unimplemented
// (502) or the subcommand unknown (500) — is not an error: whatever the
// client enforces locally stays in force.
func (c *Client) site(sub string, degrade bool) (accepted bool, err error) {
	_, err = c.do("SITE", "SITE "+sub, 200)
	var pe *ProtocolError
	if degrade && errors.As(err, &pe) {
		return false, nil
	}
	return err == nil, err
}

// xferLimiter mints the effective limiter for one transfer: a fresh
// per-transfer bucket at the client's configured rate (fresh so each
// transfer starts with a full burst) composed with the shared aggregate
// limiter, or nil when shaping is off — the unshaped fast path is a
// nil test.
func (c *Client) xferLimiter() *pacing.Limiter {
	b := pacing.NewBucket(c.rateBps, 0)
	if b == nil && c.aggLimiter == nil {
		return nil
	}
	return c.aggLimiter.With(b)
}
