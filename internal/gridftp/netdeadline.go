package gridftp

import (
	"context"
	"net"
	"sync/atomic"
	"time"

	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
)

// instrumentedConn is the one data-connection wrapper the client and
// the server share. It arms a fresh deadline before every Read and
// Write, so a stalled peer surfaces as a timeout instead of blocking a
// transfer goroutine forever — per I/O operation, so a healthy transfer
// of any length is never cut off (idle <= 0 disables) — and counts the
// wire bytes that crossed into the transfer tally and, when telemetry
// is on, the per-stripe live bins and the transfer span. The
// nil-safety of LiveCounter/Span/Counter keeps the uninstrumented path
// to a few pointer tests per I/O.
type instrumentedConn struct {
	net.Conn
	idle time.Duration
	wire *atomic.Int64
	live *telemetry.LiveCounter
	span *telemetry.Span
	// shaped, when non-nil, double-counts these bytes into the
	// shaped-wire-bytes counter: the connection is pacing-wrapped and
	// its traffic is rate-enforced.
	shaped *telemetry.Counter
}

// wrapDataConn builds the data-plane view of a raw connection: the
// instrumented conn, under a pacing layer when lim is non-nil. Pacing
// sits outermost so the deadline is armed after any throttle wait, not
// spent by it; every byte still passes both layers, so counted bytes
// are exactly the rate-enforced bytes, and throttle stalls land on the
// span. ctx bounds in-flight throttle waits.
func wrapDataConn(ctx context.Context, c instrumentedConn, lim *pacing.Limiter) net.Conn {
	if lim == nil {
		return &c
	}
	return pacing.WrapConn(ctx, &c, lim, c.span.AddThrottleWait)
}

func (c *instrumentedConn) Read(p []byte) (int, error) {
	if c.idle > 0 {
		c.Conn.SetReadDeadline(time.Now().Add(c.idle))
	}
	n, err := c.Conn.Read(p)
	c.count(int64(n))
	return n, err
}

func (c *instrumentedConn) Write(p []byte) (int, error) {
	if c.idle > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.idle))
	}
	n, err := c.Conn.Write(p)
	c.count(int64(n))
	return n, err
}

func (c *instrumentedConn) count(n int64) {
	if n <= 0 {
		return
	}
	if c.wire != nil {
		c.wire.Add(n)
	}
	c.live.Add(n)
	c.span.AddBytes(n)
	c.shaped.Add(n)
}

// setListenerDeadline arms an accept deadline when the listener
// supports one (listeners from a custom DataListen hook may not).
func setListenerDeadline(ln net.Listener, t time.Time) {
	if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
		d.SetDeadline(t)
	}
}
