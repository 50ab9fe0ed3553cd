// Package vc is the programmatic client for the oscarsd virtual-circuit
// reservation service: a typed, context-aware replacement for
// hand-rolling the line-JSON wire protocol. It is the control-plane
// half of the paper's hybrid architecture — the piece a transfer
// manager calls to ask the IDC for a rate-guaranteed circuit before
// (or while) a GridFTP session runs.
//
// Dial connects, checks with a hello that the peer is an oscarsd
// daemon, and returns a Client whose methods (Reserve, Modify, Cancel,
// Available, Topology, Now) take request structs and return typed
// results. Connections are pooled and re-established transparently, so
// one Client serves a long-lived daemon's worth of calls; a request
// that fails on a stale pooled connection is retried once on a fresh
// dial.
//
// Failures wrap sentinel errors (ErrRejected, ErrNoPath,
// ErrUnavailable, ErrUnknownCircuit) so policy code — like the session
// broker in vc/broker — can distinguish "the network said no" from
// "the daemon is gone" without parsing message strings.
package vc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
)

// A context deadline tighter than these wins: dialTimeout bounds each
// TCP connection attempt, callTimeout each round trip, and poolSize
// caps the idle connections kept between calls (concurrent calls
// beyond it dial extra connections and drop them on return).
const (
	dialTimeout = 5 * time.Second
	callTimeout = 10 * time.Second
	poolSize    = 2
)

// Option configures a Client at Dial time.
type Option func(*Client)

// WithTelemetry publishes per-call metrics on hub:
// vc_client_calls_total{op,result} with result ok | rejected |
// unavailable.
func WithTelemetry(hub *telemetry.Hub) Option {
	return func(c *Client) { c.hub = hub }
}

// Client is a pooled, auto-reconnecting connection to one oscarsd
// daemon. It is safe for concurrent use; each call runs on its own
// pooled connection.
type Client struct {
	addr string
	hub  *telemetry.Hub

	mu     sync.Mutex
	idle   []*wire
	closed bool
}

// wire is one pooled protocol connection.
type wire struct {
	conn   net.Conn
	r      *bufio.Reader
	reused bool
}

// Dial connects to an oscarsd daemon, sends the hello handshake, and
// returns a ready Client. A peer that refuses hello is not an oscarsd
// daemon: Dial fails with an error wrapping ErrRejected and closes the
// connection. The context bounds only the initial connect + handshake;
// later calls carry their own contexts.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr}
	for _, o := range opts {
		o(c)
	}
	w, err := c.connect(ctx)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(ctx, w, oscarsd.Request{Op: oscarsd.OpHello})
	if err == nil && !resp.OK {
		err = &ServerError{Op: oscarsd.OpHello, Code: resp.Code, Msg: resp.Error}
	}
	if err != nil {
		w.conn.Close()
		return nil, err
	}
	c.put(w)
	return c, nil
}

// Addr returns the daemon address this client dials.
func (c *Client) Addr() string { return c.addr }

// Close releases all pooled connections. In-flight calls fail; further
// calls return ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, w := range c.idle {
		w.conn.Close()
	}
	c.idle = nil
	return nil
}

// connect dials one fresh protocol connection.
func (c *Client) connect(ctx context.Context) (*wire, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return &wire{conn: conn, r: bufio.NewReaderSize(conn, 1<<12)}, nil
}

// get hands out a pooled connection or dials a fresh one; fresh reports
// which, so call can decide whether a transport failure is retryable.
func (c *Client) get(ctx context.Context) (w *wire, fresh bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		w = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return w, false, nil
	}
	c.mu.Unlock()
	w, err = c.connect(ctx)
	return w, true, err
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full or the client closed).
func (c *Client) put(w *wire) {
	w.reused = true
	c.mu.Lock()
	if !c.closed && len(c.idle) < poolSize {
		c.idle = append(c.idle, w)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	w.conn.Close()
}

// roundTrip writes one request line and reads one response line on w,
// bounded by the context deadline (or the call timeout) and aborted
// early on context cancellation.
func (c *Client) roundTrip(ctx context.Context, w *wire, req oscarsd.Request) (oscarsd.Response, error) {
	deadline := time.Now().Add(callTimeout)
	ctxBound := false // the context deadline, not the call timeout, governs
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
		ctxBound = true
	}
	w.conn.SetDeadline(deadline)
	// Cancellation without a deadline must still unblock the I/O:
	// close the connection when the context fires mid-call.
	stop := context.AfterFunc(ctx, func() { w.conn.Close() })
	defer stop()

	var resp oscarsd.Response
	data, err := json.Marshal(req)
	if err != nil {
		return resp, fmt.Errorf("vc: encode request: %w", err)
	}
	if _, err := w.conn.Write(append(data, '\n')); err != nil {
		return resp, c.transportErr(ctx, ctxBound, err)
	}
	line, err := w.r.ReadBytes('\n')
	if err != nil {
		return resp, c.transportErr(ctx, ctxBound, err)
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("%w: malformed response: %v", ErrUnavailable, err)
	}
	w.conn.SetDeadline(time.Time{})
	return resp, nil
}

// transportErr classifies an I/O failure: the caller's cancellation or
// deadline wins, anything else means the service is unreachable. When
// the context deadline governed the connection deadline, a timeout is
// the context expiring — wait for it to fire (it is at most a clock
// skew away) rather than racing it.
func (c *Client) transportErr(ctx context.Context, ctxBound bool, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	var ne net.Error
	if ctxBound && errors.As(err, &ne) && ne.Timeout() {
		<-ctx.Done()
		return ctx.Err()
	}
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// call executes one operation with pooling and the single stale-
// connection retry: a transport failure on a previously used connection
// (typically a daemon restart having closed it) is retried once on a
// fresh dial; failures on fresh connections are returned as-is.
func (c *Client) call(ctx context.Context, req oscarsd.Request) (oscarsd.Response, error) {
	// The transfer trace rides the line protocol to the daemon, so one
	// trace ID joins the reservation decision to the data movement it
	// governed.
	if req.Trace == "" {
		req.Trace = telemetry.TraceIDFrom(ctx)
	}
	resp, err := c.callOnce(ctx, req)
	c.count(req.Op, err)
	if req.Trace != "" {
		detail := req.Op
		if err != nil {
			detail += ": " + err.Error()
		}
		c.hub.Event(req.Trace, "vc_call", detail)
	}
	return resp, err
}

func (c *Client) callOnce(ctx context.Context, req oscarsd.Request) (oscarsd.Response, error) {
	for attempt := 0; ; attempt++ {
		w, fresh, err := c.get(ctx)
		if err != nil {
			return oscarsd.Response{}, err
		}
		resp, err := c.roundTrip(ctx, w, req)
		if err != nil {
			w.conn.Close()
			if !fresh && attempt == 0 && ctx.Err() == nil {
				continue
			}
			return oscarsd.Response{}, err
		}
		c.put(w)
		if !resp.OK {
			return resp, &ServerError{Op: req.Op, Code: resp.Code, Msg: resp.Error}
		}
		return resp, nil
	}
}

// count publishes the per-call metric (no-op without a hub).
func (c *Client) count(op string, err error) {
	if c.hub == nil {
		return
	}
	result := "ok"
	var se *ServerError
	switch {
	case err == nil:
	case errors.As(err, &se):
		result = "rejected"
	default:
		result = "unavailable"
	}
	c.hub.Counter("vc_client_calls_total",
		"Reservation-protocol calls, by operation and result.",
		telemetry.L("op", op), telemetry.L("result", result)).Inc()
}

// Reservation is an admitted (or re-booked) circuit.
type Reservation struct {
	// ID names the circuit for Modify and Cancel.
	ID int64
	// Path lists the link IDs the circuit traverses.
	Path []string
	// Src, Dst echo the requested endpoints.
	Src, Dst string
}

// ReserveRequest asks for a rate-guaranteed circuit between two
// topology nodes over a service-clock window. Times are seconds on the
// daemon's clock (see Now); Start must not be in the past.
type ReserveRequest struct {
	Src, Dst string
	RateBps  float64
	Start    float64
	End      float64
}

// Reserve books a circuit. Admission failures wrap ErrNoPath (no
// feasible route at that bandwidth) or ErrRejected.
func (c *Client) Reserve(ctx context.Context, req ReserveRequest) (*Reservation, error) {
	resp, err := c.call(ctx, oscarsd.Request{
		Op: oscarsd.OpReserve, Src: req.Src, Dst: req.Dst,
		RateBps: req.RateBps, Start: req.Start, End: req.End,
	})
	if err != nil {
		return nil, err
	}
	return &Reservation{ID: resp.ID, Path: resp.Path, Src: resp.Src, Dst: resp.Dst}, nil
}

// ModifyRequest re-books a held circuit with a new rate and/or window
// (the OSCARS modifyReservation operation).
type ModifyRequest struct {
	ID      int64
	RateBps float64
	Start   float64
	End     float64
}

// Modify atomically re-books a reservation; on rejection the old
// booking survives server-side and the error wraps ErrRejected (or
// ErrUnknownCircuit when the daemon no longer holds the circuit).
func (c *Client) Modify(ctx context.Context, req ModifyRequest) (*Reservation, error) {
	resp, err := c.call(ctx, oscarsd.Request{
		Op: oscarsd.OpModify, ID: req.ID,
		RateBps: req.RateBps, Start: req.Start, End: req.End,
	})
	if err != nil {
		return nil, err
	}
	return &Reservation{ID: resp.ID, Path: resp.Path}, nil
}

// Cancel releases a held circuit. Cancelling a circuit the daemon does
// not hold wraps ErrUnknownCircuit.
func (c *Client) Cancel(ctx context.Context, id int64) error {
	_, err := c.call(ctx, oscarsd.Request{Op: oscarsd.OpCancel, ID: id})
	return err
}

// Available probes admission without booking: it returns the path a
// Reserve with the same parameters would get, or an error wrapping
// ErrNoPath/ErrRejected.
func (c *Client) Available(ctx context.Context, req ReserveRequest) ([]string, error) {
	resp, err := c.call(ctx, oscarsd.Request{
		Op: oscarsd.OpAvailable, Src: req.Src, Dst: req.Dst,
		RateBps: req.RateBps, Start: req.Start, End: req.End,
	})
	if err != nil {
		return nil, err
	}
	return resp.Path, nil
}

// Topology describes the daemon's network and clock.
type Topology struct {
	// Nodes lists every topology node reservations may name.
	Nodes []string
	// Now is the daemon's service clock (seconds since its epoch) when
	// the reply was built.
	Now float64
}

// Topology fetches the daemon's node set and service clock.
func (c *Client) Topology(ctx context.Context) (*Topology, error) {
	resp, err := c.call(ctx, oscarsd.Request{Op: oscarsd.OpTopology})
	if err != nil {
		return nil, err
	}
	return &Topology{Nodes: resp.Nodes, Now: resp.Now}, nil
}

// Now returns the daemon's service clock in seconds, read with the
// hello op. Reservation windows are expressed on this clock, so
// schedulers sample it to anchor Start/End.
func (c *Client) Now(ctx context.Context) (float64, error) {
	resp, err := c.call(ctx, oscarsd.Request{Op: oscarsd.OpHello})
	if err != nil {
		return 0, err
	}
	return resp.Now, nil
}
