package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
)

// Deadline defaults applied by Dial; see WithControlTimeout and
// WithDataTimeout.
const (
	DefaultControlTimeout = 30 * time.Second
	DefaultDataTimeout    = 30 * time.Second
	defaultDialTimeout    = 10 * time.Second
)

// ErrDesynced reports a control channel whose pending transfer status
// could not be drained after a failure: replies on it no longer match
// commands, so the client refuses further use. Open a fresh connection.
var ErrDesynced = errors.New("gridftp: control channel desynced by earlier failure; reconnect")

// Client drives a GridFTP server over a control connection. It supports
// parallel-stream and striped retrievals and stores, and third-party
// transfers between two servers.
//
// Every operation is deadline-bounded: control-channel commands by the
// control timeout and each data-connection read/write by the data
// timeout, so no method blocks indefinitely on a dead or stalled peer.
//
// A Client is not safe for concurrent use; GridFTP multiplexes one
// transfer at a time per control channel.
type Client struct {
	conn net.Conn
	r    *bufio.Reader

	parallelism    int
	controlTimeout time.Duration
	dataTimeout    time.Duration
	windowSize     int
	dialFunc       func(network, addr string) (net.Conn, error)
	desynced       bool

	hub  *telemetry.Hub
	met  *cliMetrics
	sess *telemetry.Span // session-scoped span: control_dial, auth, idle, teardown

	// trace is the end-to-end context bound by WithTrace; zero
	// when tracing is off (the default), in which case nothing
	// trace-related touches the wire.
	trace telemetry.TraceContext

	// Rate shaping (WithRate/WithLimiter): every transfer mints a fresh
	// per-transfer bucket at rateBps composed with the shared aggregate
	// limiter. rateWired tracks whether the server accepted a SITE RATE
	// for this channel, so clearing only touches the wire when there is
	// something to clear.
	rateBps    int64
	aggLimiter *pacing.Limiter
	rateWired  bool

	// peer is the Client whose last third-party transfer with this one
	// ended in two cached-channel 226s; PASV, SPAS, a failed transfer
	// and Close clear it (see ThirdPartyFrom).
	peer *Client
}

// Reply is a control-channel response.
type Reply struct {
	Code  int
	Text  string
	Lines []string // bodies of multi-line replies
}

// ProtocolError reports an unexpected control-channel reply.
type ProtocolError struct {
	Verb  string
	Reply Reply
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("gridftp: %s failed: %d %s", e.Verb, e.Reply.Code, e.Reply.Text)
}

// Dial connects to a server's control channel and consumes the greeting.
// The default deadlines (DefaultControlTimeout, DefaultDataTimeout)
// apply unless overridden by options; an option that needs the server
// (see Option) is an error here.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{
		parallelism:    1,
		controlTimeout: DefaultControlTimeout,
		dataTimeout:    DefaultDataTimeout,
		windowSize:     DefaultWindowSize,
	}
	if err := c.ApplyOptions(opts...); err != nil {
		return nil, err
	}
	c.met = newCliMetrics(c.hub)
	c.sess = c.hub.Span("session", addr, telemetry.PhaseControlDial)
	conn, err := c.dial(addr)
	if err != nil {
		c.met.dialDone(err)
		c.sess.End(err)
		return nil, err
	}
	c.conn = conn
	c.r = bufio.NewReader(conn)
	if _, err := c.expect("greeting", 220); err != nil {
		conn.Close()
		c.met.dialDone(err)
		c.sess.End(err)
		return nil, err
	}
	c.met.dialDone(nil)
	c.sess.Phase(telemetry.PhaseIdle)
	return c, nil
}

func (c *Client) dial(addr string) (net.Conn, error) {
	if c.dialFunc != nil {
		return c.dialFunc("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, defaultDialTimeout)
}

// dataConn dials one data endpoint and instruments it: the data timeout
// per I/O, wire bytes counted into the transfer span (a nil span counts
// nothing), and pacing when lim is non-nil (see wrapDataConn).
func (c *Client) dataConn(ctx context.Context, addr string, sp *telemetry.Span, lim *pacing.Limiter) (net.Conn, error) {
	conn, err := c.dial(addr)
	if err != nil {
		return nil, err
	}
	ic := instrumentedConn{Conn: conn, idle: c.dataTimeout, span: sp}
	if lim != nil {
		ic.shaped = c.met.shapedBytes()
	}
	return wrapDataConn(ctx, ic, lim), nil
}

// Close terminates the session with QUIT.
func (c *Client) Close() error {
	c.sess.Phase(telemetry.PhaseTeardown)
	c.peer = nil
	_, _ = c.cmd("QUIT")
	err := c.conn.Close()
	c.sess.End(nil)
	return err
}

// cmd sends one command and reads its reply.
func (c *Client) cmd(line string) (Reply, error) {
	if c.desynced {
		return Reply{}, ErrDesynced
	}
	if c.conn == nil {
		return Reply{}, errNoSession
	}
	if c.controlTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.controlTimeout))
	}
	if _, err := fmt.Fprintf(c.conn, "%s\r\n", line); err != nil {
		return Reply{}, err
	}
	return c.readReply()
}

// readReply parses a single- or multi-line FTP reply. Each line read is
// bounded by the control timeout so a mute server cannot hang the
// client.
func (c *Client) readReply() (Reply, error) {
	var rep Reply
	for {
		if c.controlTimeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.controlTimeout))
		}
		line, err := c.r.ReadString('\n')
		if err != nil {
			return rep, err
		}
		line = strings.TrimRight(line, "\r\n")
		if len(line) < 4 {
			return rep, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		code, err := strconv.Atoi(line[:3])
		if err != nil {
			return rep, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		rep.Code = code
		switch line[3] {
		case ' ':
			rep.Text = line[4:]
			return rep, nil
		case '-':
			rep.Lines = append(rep.Lines, line[4:])
		default:
			return rep, fmt.Errorf("gridftp: malformed reply %q", line)
		}
	}
}

// expect reads/validates a reply against the wanted code.
func (c *Client) expect(verb string, want int) (Reply, error) {
	rep, err := c.readReply()
	if err != nil {
		return rep, err
	}
	if rep.Code != want {
		return rep, &ProtocolError{Verb: verb, Reply: rep}
	}
	return rep, nil
}

// drainReply consumes the transfer-status reply (226/425/426) still
// owed on the control channel after a failed data phase, so the session
// stays in sync for the next command. The drain is always bounded —
// even with deadlines disabled — because this is exactly the path a
// dead server used to hang forever. If the reply never arrives the
// client is marked desynced and every later command fails fast with
// ErrDesynced instead of reading mismatched replies.
func (c *Client) drainReply() {
	if c.controlTimeout <= 0 {
		c.conn.SetReadDeadline(time.Now().Add(DefaultControlTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	if _, err := c.readReply(); err != nil {
		c.desynced = true
	}
}

// do sends a command and requires the given reply code.
func (c *Client) do(verb, line string, want int) (Reply, error) {
	rep, err := c.cmd(line)
	if err != nil {
		return rep, err
	}
	if rep.Code != want {
		return rep, &ProtocolError{Verb: verb, Reply: rep}
	}
	return rep, nil
}

// Login authenticates and establishes binary MODE E, the GridFTP
// transfer preconditions.
func (c *Client) Login(user, pass string) error {
	c.sess.Phase(telemetry.PhaseAuth)
	defer c.sess.Phase(telemetry.PhaseIdle)
	if _, err := c.do("USER", "USER "+user, 331); err != nil {
		return err
	}
	if _, err := c.do("PASS", "PASS "+pass, 230); err != nil {
		return err
	}
	if _, err := c.do("TYPE", "TYPE I", 200); err != nil {
		return err
	}
	_, err := c.do("MODE", "MODE E", 200)
	return err
}

// Noop sends NOOP, the keepalive probe: it both verifies the control
// channel end to end and resets the server's idle clock.
func (c *Client) Noop() error {
	_, err := c.do("NOOP", "NOOP", 200)
	return err
}

// errStale: an idle control channel's server hung up or spoke out of
// turn (see CheckIdle).
var errStale = errors.New("gridftp: idle control channel is stale")

// CheckIdle verifies an idle control channel before reuse, with no
// round trip where it can: a reply already buffered, or a byte, EOF or
// reset waiting on the socket, means the server spoke out of turn or
// hung up. A connection with no socket descriptor (an in-memory pipe, a
// wrapping dialer) is checked with NOOP instead. A silent half-open
// path passes the local check; only a round trip catches that.
func (c *Client) CheckIdle() error {
	if c.desynced {
		return ErrDesynced
	}
	if c.r.Buffered() > 0 {
		return errStale
	}
	// The last reply left a read deadline behind; once it has passed, the
	// peek would fail before it looks. The next command sets its own.
	c.conn.SetReadDeadline(time.Time{})
	switch stale, ok := peekStale(c.conn); {
	case !ok:
		return c.Noop()
	case stale:
		return errStale
	}
	return nil
}

// Desynced reports whether the control channel has been poisoned by an
// undrained failure; a pool must discard such a connection rather than
// hand it to the next job.
func (c *Client) Desynced() bool { return c.desynced }

// SetParallelism sets the number of parallel TCP streams for subsequent
// transfers (the Globus -p flag; OPTS RETR Parallelism).
func (c *Client) SetParallelism(n int) error {
	if n < 1 || n > 64 {
		return errors.New("gridftp: parallelism must be in [1,64]")
	}
	if _, err := c.do("OPTS", fmt.Sprintf("OPTS RETR Parallelism=%d,%d,%d;", n, n, n), 200); err != nil {
		return err
	}
	c.parallelism = n
	return nil
}

// SetBuffer sets the server's TCP buffer size hint (SBUF), recorded in
// usage logs.
func (c *Client) SetBuffer(bytes int64) error {
	_, err := c.do("SBUF", "SBUF "+strconv.FormatInt(bytes, 10), 200)
	return err
}

// Size returns an object's size.
func (c *Client) Size(name string) (int64, error) {
	rep, err := c.do("SIZE", "SIZE "+name, 213)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(rep.Text), 10, 64)
}

// Checksum returns the server-side CRC32 of an object (lowercase hex),
// the GridFTP CKSM integrity hook.
func (c *Client) Checksum(name string) (string, error) {
	rep, err := c.do("CKSM", "CKSM CRC32 0 -1 "+name, 213)
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(rep.Text), nil
}

// List returns the names of the server's objects under prefix (NLST).
func (c *Client) List(prefix string) ([]string, error) {
	cmd := "NLST"
	if prefix != "" {
		cmd += " " + prefix
	}
	rep, err := c.do("NLST", cmd, 250)
	if err != nil {
		return nil, err
	}
	var names []string
	for i, l := range rep.Lines {
		if i == 0 { // "listing" header
			continue
		}
		if n := strings.TrimSpace(l); n != "" {
			names = append(names, n)
		}
	}
	return names, nil
}

// Features returns the server's FEAT list.
func (c *Client) Features() ([]string, error) {
	rep, err := c.do("FEAT", "FEAT", 211)
	if err != nil {
		return nil, err
	}
	return rep.Lines, nil
}

// passive requests PASV and returns the data address.
func (c *Client) passive() (string, error) {
	c.peer = nil
	rep, err := c.do("PASV", "PASV", 227)
	if err != nil {
		return "", err
	}
	open := strings.Index(rep.Text, "(")
	close := strings.LastIndex(rep.Text, ")")
	if open < 0 || close <= open {
		return "", fmt.Errorf("gridftp: malformed PASV reply %q", rep.Text)
	}
	return parseHostPort(rep.Text[open+1 : close])
}

// stripedPassive requests SPAS and returns one data address per stripe:
// the reply's comma lines, after its header line.
func (c *Client) stripedPassive() ([]string, error) {
	c.peer = nil
	rep, err := c.do("SPAS", "SPAS", 229)
	if err != nil {
		return nil, err
	}
	var addrs []string
	for _, l := range rep.Lines {
		if !strings.Contains(l, ",") {
			continue
		}
		a, err := parseHostPort(l)
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, a)
	}
	if len(addrs) == 0 {
		return nil, errors.New("gridftp: SPAS returned no addresses")
	}
	return addrs, nil
}

// TransferStats describes one completed client-side transfer.
type TransferStats struct {
	Bytes         int64
	Duration      time.Duration
	Streams       int
	Stripes       int
	ThroughputBps float64
	// WireBytes is the payload byte count that crossed the data
	// channels, including duplicate regions a resumed sender
	// re-transmitted; it equals Bytes when nothing was re-sent.
	WireBytes int64
	// StorAccepted reports that the server accepted this upload's STOR
	// command; StorFrom/StorFromAt set it even when the transfer later
	// fails. Until acceptance the server has not touched the named
	// object, so resume logic must not read a pre-existing object's
	// SIZE as this transfer's delivered watermark.
	StorAccepted bool
}

// The buffered calls below are the streaming engines (stream.go) in a
// second call shape: the same retrieve and store run with no
// cancellation context, collecting into or reading from a byte slice.
// On failure they return no data and zero stats.

// byteSink collects a retrieval in memory; the engine presizes buf once
// the region length is known, so delivery does not reallocate.
type byteSink struct{ buf []byte }

func (s *byteSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// retrBytes runs one retrieval into memory.
func (c *Client) retrBytes(op, name string, striped bool, offset, length int64, opts []Option) ([]byte, TransferStats, error) {
	var sink byteSink
	stats, err := c.retrieve(context.Background(), op, name, &sink, striped, offset, length, opts)
	if err != nil {
		return nil, TransferStats{}, err
	}
	return sink.buf, stats, nil
}

// Retr fetches an object using the configured parallelism over a single
// stripe (PASV + n connections to the same listener).
func (c *Client) Retr(name string, opts ...Option) ([]byte, TransferStats, error) {
	return c.retrBytes("retr", name, false, 0, -1, opts)
}

// RetrStriped fetches an object in striped mode (SPAS; one connection per
// server stripe).
func (c *Client) RetrStriped(name string, opts ...Option) ([]byte, TransferStats, error) {
	return c.retrBytes("retr_striped", name, true, 0, -1, opts)
}

// RetrPartial fetches the byte region [offset, offset+length) of an
// object with GridFTP's ERET extension.
func (c *Client) RetrPartial(name string, offset, length int64, opts ...Option) ([]byte, TransferStats, error) {
	if offset < 0 || length <= 0 {
		return nil, TransferStats{}, errors.New("gridftp: invalid partial region")
	}
	return c.retrBytes("eret", name, false, offset, length, opts)
}

// RetrFrom resumes a retrieval at offset using REST, the failure-recovery
// path GridFTP sessions rely on.
func (c *Client) RetrFrom(name string, offset int64, opts ...Option) ([]byte, TransferStats, error) {
	return c.retrBytes("rest_retr", name, false, offset, -1, opts)
}

// storBytes runs one upload from memory.
func (c *Client) storBytes(op, name string, data []byte, striped bool, opts []Option) (TransferStats, error) {
	stats, err := c.store(context.Background(), op, name, bytes.NewReader(data), striped, 0, opts)
	if err != nil {
		return TransferStats{}, err
	}
	return stats, nil
}

// Stor uploads an object using the configured parallelism.
func (c *Client) Stor(name string, data []byte, opts ...Option) (TransferStats, error) {
	return c.storBytes("stor", name, data, false, opts)
}

// StorStriped uploads an object in striped mode: one data connection per
// server stripe (SPAS).
func (c *Client) StorStriped(name string, data []byte, opts ...Option) (TransferStats, error) {
	return c.storBytes("stor_striped", name, data, true, opts)
}

func (c *Client) stats(size int64, start time.Time, conns int, striped bool) TransferStats {
	d := time.Since(start)
	st := TransferStats{Bytes: size, Duration: d}
	if striped {
		st.Stripes, st.Streams = conns, 1
	} else {
		st.Stripes, st.Streams = 1, conns
	}
	if d > 0 {
		st.ThroughputBps = float64(size) * 8 / d.Seconds()
	}
	return st
}

// ThirdParty performs a server-to-server transfer: src RETRs the object
// straight into dst's data port while this client drives both control
// channels — GridFTP's third-party transfer, which is how the scripts
// behind the paper's sessions move directory trees between DTNs.
//
// If the transfer fails after dst accepted its STOR, dst still owes a
// completion reply (a 425/426 once its data accept times out or its
// peer vanishes); ThirdParty drains it, bounded by dst's control
// timeout, so both clients remain usable — a failed transfer must not
// poison the sessions that retry managers like xferman reuse.
func ThirdParty(src, dst *Client, srcName, dstName string) error {
	_, err := ThirdPartyFrom(src, dst, srcName, dstName, 0)
	return err
}

// ThirdPartyFrom is ThirdParty resuming at a byte offset: REST is
// issued on both control channels, so src retransmits only [offset, …)
// and dst appends it to the partial object whose Size is the offset —
// the resume-aware retry path that re-sends at most one reassembly
// window of duplicates instead of the whole object.
//
// dstEngaged reports whether dst accepted the STOR command. A
// resume-aware retry may only trust the destination object's SIZE as
// this job's delivered watermark once that happened — before
// acceptance a failure leaves any pre-existing object under dstName
// untouched, and resuming at its stale size would splice old bytes
// under new ones.
//
// When both servers end a transfer with a cached-channel 226, src and
// dst remember each other, and their next transfer together skips PASV
// and PORT: both servers run it over the data connection they kept.
// Anything else leaves both forgetting, so a server that never caches
// sees today's conversation exactly.
func ThirdPartyFrom(src, dst *Client, srcName, dstName string, offset int64) (dstEngaged bool, err error) {
	if offset < 0 {
		return false, errors.New("gridftp: negative restart offset")
	}
	reuse := src.peer == dst && dst.peer == src
	src.peer, dst.peer = nil, nil
	if reuse {
		src.met.reuses.Inc()
	} else if err := pointAt(src, dst); err != nil {
		return false, err
	}
	if offset > 0 {
		if _, err := dst.do("REST", fmt.Sprintf("REST %d", offset), 350); err != nil {
			return false, err
		}
	}
	// Start the receiver first, then the sender.
	if _, err := dst.do("STOR", "STOR "+dstName, 150); err != nil {
		return false, err
	}
	// From here dst is mid-transfer and owes a completion reply; every
	// early exit must drain it or the next command on dst would read a
	// stale 425/426 as its own reply.
	if offset > 0 {
		if _, err := src.do("REST", fmt.Sprintf("REST %d", offset), 350); err != nil {
			dst.drainReply()
			return true, err
		}
	}
	if _, err := src.do("RETR", "RETR "+srcName, 150); err != nil {
		dst.drainReply()
		return true, err
	}
	srep, err := src.expect("RETR-complete", 226)
	if err != nil {
		dst.drainReply()
		return true, err
	}
	drep, err := dst.expect("STOR-complete", 226)
	if err == nil && strings.HasSuffix(srep.Text, channelCached) && strings.HasSuffix(drep.Text, channelCached) {
		src.peer, dst.peer = dst, src
	}
	return true, err
}

// channelCached ends the 226 of a transfer whose server kept its data
// channel for the session's next transfer.
const channelCached = "data channel cached"

// pointAt arms a fresh data channel: dst opens a passive data port and
// src will connect to it actively.
func pointAt(src, dst *Client) error {
	addr, err := dst.passive()
	if err != nil {
		return err
	}
	tcp, err := net.ResolveTCPAddr("tcp", addr)
	if err != nil {
		return err
	}
	hostPort := hostPortString(tcp)
	if hostPort == "" {
		return errors.New("gridftp: third-party requires IPv4 data address")
	}
	_, err = src.do("PORT", "PORT "+hostPort, 200)
	return err
}
