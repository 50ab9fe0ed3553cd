// Package faultnet provides fault-injecting net.Conn and net.Listener
// wrappers for failure-mode testing of transfer engines: slow readers
// and writers, connections that are reset or truncated after a byte
// budget, and listeners whose accepts stall. The gridftp failure-matrix
// tests plug these into the server's DataListen hook and the client's
// dial hook to exercise every transfer entry point against every fault
// the paper's production traces exhibit (REST-based restarts, circuit
// setup delays, contended servers).
//
// Tracker doubles as a leak detector: it counts how many listeners
// opened through it are still open, which is how the tests prove that a
// session looping transfers does not accumulate data listeners.
package faultnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is returned by a Conn whose fault plan fired.
var ErrInjected = errors.New("faultnet: injected fault")

// ConnPlan describes the faults one connection injects. A zero plan is
// a clean connection. Byte limits of 0 disable the corresponding fault.
type ConnPlan struct {
	// ReadDelay is added before every Read (a slow reader).
	ReadDelay time.Duration
	// WriteDelay is added before every Write (a slow sender).
	WriteDelay time.Duration
	// TruncateReadAfter makes Reads report io.EOF after this many bytes,
	// as if the peer closed cleanly mid-stream.
	TruncateReadAfter int64
	// TruncateWriteAfter closes the connection (clean FIN) once this many
	// bytes have been written; the peer sees a stream cut mid-frame.
	TruncateWriteAfter int64
	// ResetReadAfter resets the connection (RST) once this many bytes
	// have been read.
	ResetReadAfter int64
	// ResetWriteAfter resets the connection (RST) once this many bytes
	// have been written.
	ResetWriteAfter int64
}

// Conn wraps a net.Conn and injects the faults its plan describes.
// Reads and writes may run on different goroutines (one direction
// each), matching how transfer engines use data connections.
type Conn struct {
	net.Conn
	plan   ConnPlan
	readN  int64
	writeN int64
}

// NewConn wraps c with the given fault plan.
func NewConn(c net.Conn, plan ConnPlan) *Conn {
	return &Conn{Conn: c, plan: plan}
}

func (c *Conn) Read(p []byte) (int, error) {
	if c.plan.ReadDelay > 0 {
		time.Sleep(c.plan.ReadDelay)
	}
	if lim := c.plan.ResetReadAfter; lim > 0 {
		if c.readN >= lim {
			c.reset()
			return 0, ErrInjected
		}
		p = capRead(p, lim-c.readN)
	}
	if lim := c.plan.TruncateReadAfter; lim > 0 {
		if c.readN >= lim {
			return 0, io.EOF
		}
		p = capRead(p, lim-c.readN)
	}
	n, err := c.Conn.Read(p)
	c.readN += int64(n)
	return n, err
}

// capRead shortens p to the bytes still inside a read budget, so the
// read that crosses the limit delivers exactly up to it and the fault
// fires at an exact stream position.
func capRead(p []byte, rem int64) []byte {
	if int64(len(p)) > rem {
		return p[:rem]
	}
	return p
}

func (c *Conn) Write(p []byte) (int, error) {
	if c.plan.WriteDelay > 0 {
		time.Sleep(c.plan.WriteDelay)
	}
	if lim := c.plan.ResetWriteAfter; lim > 0 && c.writeN+int64(len(p)) > lim {
		n := c.writePrefix(p, lim)
		c.reset()
		return n, ErrInjected
	}
	if lim := c.plan.TruncateWriteAfter; lim > 0 && c.writeN+int64(len(p)) > lim {
		n := c.writePrefix(p, lim)
		c.Conn.Close()
		return n, ErrInjected
	}
	n, err := c.Conn.Write(p)
	c.writeN += int64(n)
	return n, err
}

// writePrefix delivers the bytes still inside the limit so the fault
// fires at an exact stream position (mid MODE E block, for instance).
func (c *Conn) writePrefix(p []byte, lim int64) int {
	allowed := lim - c.writeN
	if allowed <= 0 {
		return 0
	}
	n, _ := c.Conn.Write(p[:allowed])
	c.writeN += int64(n)
	return n
}

// reset closes the connection with an RST instead of a FIN so the peer
// observes ECONNRESET, the signature of a crashed process.
func (c *Conn) reset() {
	if tc, ok := c.Conn.(interface{ SetLinger(int) error }); ok {
		tc.SetLinger(0)
	}
	c.Conn.Close()
}

// Listener wraps a net.Listener, stalling accepts and attaching fault
// plans to the connections it hands out.
type Listener struct {
	net.Listener
	// AcceptDelay is added before every Accept call; set it beyond the
	// acceptor's deadline to simulate a data channel that never comes up
	// (the circuit-setup-delay scenario).
	AcceptDelay time.Duration
	// PlanFor returns the fault plan for the i-th accepted connection
	// (0-based); nil means that connection is clean.
	PlanFor func(i int) *ConnPlan

	mu       sync.Mutex
	accepted int
}

func (l *Listener) Accept() (net.Conn, error) {
	if l.AcceptDelay > 0 {
		time.Sleep(l.AcceptDelay)
	}
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.accepted
	l.accepted++
	l.mu.Unlock()
	if l.PlanFor == nil {
		return c, nil
	}
	plan := l.PlanFor(i)
	if plan == nil {
		return c, nil
	}
	return NewConn(c, *plan), nil
}

// SetDeadline arms an accept deadline when the wrapped listener
// supports one, so acceptors that bound their waits keep working.
func (l *Listener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

// Tracker opens listeners, counts how many are still open, and applies
// this tracker's faults to every connection they accept. Its Listen
// method matches the gridftp Config.DataListen hook.
type Tracker struct {
	// AcceptDelay and PlanFor are copied into every opened Listener.
	AcceptDelay time.Duration
	PlanFor     func(i int) *ConnPlan

	mu    sync.Mutex
	open  int
	total int
}

// ResetFirstConn returns a tracker that resets the first data connection
// it ever accepts, on any of its listeners, once `after` bytes have been
// read from it; every later connection is clean. It is the one
// mid-transfer fault the resume tests and the streamresume drill inject.
func ResetFirstConn(after int64) *Tracker {
	var fired atomic.Bool
	return &Tracker{PlanFor: func(int) *ConnPlan {
		if fired.Swap(true) {
			return nil
		}
		return &ConnPlan{ResetReadAfter: after}
	}}
}

// Listen opens a tracked, fault-injecting listener.
func (t *Tracker) Listen(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.open++
	t.total++
	t.mu.Unlock()
	return &trackedListener{
		Listener: &Listener{Listener: ln, AcceptDelay: t.AcceptDelay, PlanFor: t.PlanFor},
		tracker:  t,
	}, nil
}

// Open returns how many tracked listeners are currently open.
func (t *Tracker) Open() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// Total returns how many listeners were ever opened through the tracker.
func (t *Tracker) Total() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

type trackedListener struct {
	*Listener
	tracker *Tracker
	once    sync.Once
}

func (l *trackedListener) Close() error {
	l.once.Do(func() {
		l.tracker.mu.Lock()
		l.tracker.open--
		l.tracker.mu.Unlock()
	})
	return l.Listener.Close()
}
