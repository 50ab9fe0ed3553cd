package gridftp

import (
	"bufio"
	"bytes"
	"cmp"
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

// ErrDesynced reports a control channel where a command's write or a
// reply's read failed, such as a transfer status that could not be
// drained: replies on it no longer match commands, so the client
// refuses further use. Open a fresh connection.
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
	clientState // the protocol state; Client runs its actions

	conn net.Conn
	r    *bufio.Reader
	wbuf []byte   // the command send writes
	peek idlePeek // CheckIdle's look at conn

	controlTimeout time.Duration
	dataTimeout    time.Duration
	windowSize     int
	dialFunc       func(network, addr string) (net.Conn, error)

	hub  *telemetry.Hub
	met  *cliMetrics
	sess *telemetry.Span // session-scoped span: control_dial, auth, idle, teardown
	// xfer is the span of the transfer in flight, re-armed by each
	// RetrToAt and StorFromAt (see beginTransfer).
	xfer telemetry.Span

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

	// chans are the data connections the last transfer kept, with their
	// frame buffers, while clientState.own says the server kept their
	// other ends (see transfer).
	chans []*dataChan

	// texts are the texts of recent replies, which readReply hands out
	// again when a reply repeats one (a 150 or 226 of the same object);
	// textNext is the slot the next new text overwrites.
	texts    [8]string
	textNext int
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
		clientState:    clientState{parallelism: 1},
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
	c.run(event{kind: evSent, verb: "greeting"})
	if _, err := c.answer(); err != nil {
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

// Close terminates the session with QUIT.
func (c *Client) Close() error {
	c.sess.Phase(telemetry.PhaseTeardown)
	c.run(event{kind: evClose})
	_, _ = c.cmd("QUIT")
	err := c.conn.Close()
	c.sess.End(nil)
	return err
}

// cmd sends one command and reads its reply.
func (c *Client) cmd(line string) (Reply, error) {
	if err := c.send(line, ""); err != nil {
		return Reply{}, err
	}
	return c.readReply()
}

// send writes one command, verb then arg, without reading its reply; it
// is composed in the client's command buffer, so it costs no string.
func (c *Client) send(verb, arg string) error {
	if c.desynced {
		return ErrDesynced
	}
	if c.conn == nil {
		return errNoSession
	}
	if c.controlTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.controlTimeout))
	}
	c.wbuf = append(append(append(c.wbuf[:0], verb...), arg...), "\r\n"...)
	_, err := c.conn.Write(c.wbuf)
	c.run(event{kind: evSent, verb: verb, fail: err != nil})
	return err
}

// run applies ev to c's protocol state and runs the effect's I/O: it
// closes the kept data connections, or drains the owed replies.
func (c *Client) run(ev event) action {
	e := c.apply(ev)
	if e.drop {
		closeChans(c.chans)
		c.chans = nil
	}
	if e.drain {
		c.drain()
	}
	return e
}

// readReply parses a single- or multi-line FTP reply, and tells c's
// state, which takes it as the oldest reply owed. Each line read is
// bounded by the control timeout so a mute server cannot hang the
// client. Lines are parsed in the reader's buffer, and a text that
// repeats a recent one reuses its string (see intern), so a steady
// stream of equal replies makes none.
func (c *Client) readReply() (rep Reply, err error) {
	defer func() { c.run(event{kind: evReply, code: rep.Code, text: rep.Text, fail: err != nil}) }()
	for {
		if c.controlTimeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.controlTimeout))
		}
		line, err := readLine(c.r)
		if err == errLongLine {
			return rep, fmt.Errorf("gridftp: malformed reply: %w", err)
		}
		if err != nil {
			return rep, err
		}
		code, ok := replyCode(line)
		if !ok {
			return rep, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		rep.Code = code
		switch line[3] {
		case ' ':
			rep.Text = c.intern(line[4:])
			return rep, nil
		case '-':
			rep.Lines = append(rep.Lines, string(line[4:]))
		default:
			return rep, fmt.Errorf("gridftp: malformed reply %q", line)
		}
	}
}

// maxControlLine bounds one control-channel line, its line end
// included: a longer reply line is malformed, and a longer command gets
// 500 and ends the session. So a peer that streams bytes without a
// newline is refused once it has sent this many, rather than gathered
// until a deadline fires, or forever without one.
const maxControlLine = 8 << 10

// errLongLine: a control line ran past maxControlLine bytes.
var errLongLine = fmt.Errorf("line longer than %d bytes", maxControlLine)

// readLine reads one line, its trailing CRs and LFs cut. The line is
// r's buffer, valid until the next read, unless it outgrew the buffer
// and had to be gathered. A line longer than maxControlLine is
// errLongLine, read no further than one buffer past the cap.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull && len(long) <= maxControlLine {
			line, err = r.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if len(line) > maxControlLine {
		return nil, errLongLine
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

// replyCode parses a reply line's code: three ASCII digits (RFC 959)
// followed by a separator.
func replyCode(line []byte) (int, bool) {
	if len(line) < 4 {
		return 0, false
	}
	code := 0
	for _, d := range line[:3] {
		if d < '0' || d > '9' {
			return 0, false
		}
		code = code*10 + int(d-'0')
	}
	return code, true
}

// intern returns text as a string, the one c handed out for an equal
// text lately if there is one.
func (c *Client) intern(text []byte) string {
	for _, s := range c.texts {
		if s == string(text) {
			return s
		}
	}
	s := string(text)
	c.texts[c.textNext] = s
	c.textNext = (c.textNext + 1) % len(c.texts)
	return s
}

// answer reads the next reply and requires the one that means success
// for what it answers, as c's state says.
func (c *Client) answer() (Reply, error) { return c.expect(c.owed[0].verb, c.owed[0].want) }

// expect reads the next reply and requires the wanted code.
func (c *Client) expect(verb string, want int) (Reply, error) {
	rep, err := c.readReply()
	if err == nil && rep.Code != want {
		err = &ProtocolError{Verb: verb, Reply: rep}
	}
	return rep, err
}

// drain reads the replies c is still owed, such as the status
// (226/425/426) of a transfer whose data phase failed, so the session
// stays in sync for the next command. It is always bounded, even with
// deadlines disabled, because this is exactly the path a dead server
// used to hang forever. A reply that never arrives leaves c desynced,
// and every later command fails fast with ErrDesynced instead of
// reading mismatched replies.
func (c *Client) drain() {
	if c.controlTimeout <= 0 && c.nOwed > 0 {
		c.conn.SetReadDeadline(time.Now().Add(DefaultControlTimeout))
		defer c.conn.SetReadDeadline(time.Time{})
	}
	for c.run(event{kind: evDrain}).read {
		c.readReply()
	}
}

// do sends a command and requires the given reply code.
func (c *Client) do(verb, line string, want int) (Reply, error) {
	if err := c.send(line, ""); err != nil {
		return Reply{}, err
	}
	return c.expect(verb, want)
}

// Login authenticates and establishes binary MODE E, the GridFTP
// transfer preconditions.
func (c *Client) Login(user, pass string) error {
	c.sess.Phase(telemetry.PhaseAuth)
	defer c.sess.Phase(telemetry.PhaseIdle)
	for _, line := range [...]string{"USER " + user, "PASS " + pass, "TYPE I", "MODE E"} {
		if err := c.send(line, ""); err != nil {
			return err
		}
		if _, err := c.answer(); err != nil {
			return err
		}
	}
	return nil
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
	switch stale, ok := c.peek.stale(c.conn); {
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
// transfers (the Globus -p flag; OPTS RETR Parallelism). A changed count
// drops the cached data channels on both ends.
func (c *Client) SetParallelism(n int) error {
	if n < 1 || n > 64 {
		return errors.New("gridftp: parallelism must be in [1,64]")
	}
	if _, err := c.do("OPTS", fmt.Sprintf("OPTS RETR Parallelism=%d,%d,%d;", n, n, n), 200); err != nil {
		return err
	}
	c.run(event{kind: evParallelism, n: n})
	return nil
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

// passive requests PASV and returns the data address.
func (c *Client) passive() (string, error) {
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
// behind the paper's sessions move directory trees between DTNs. A
// failed transfer leaves both clients usable: each drains the replies it
// is still owed, bounded by its control timeout.
func ThirdParty(src, dst *Client, srcName, dstName string) error {
	_, _, err := ThirdPartyFrom(src, dst, srcName, dstName, 0)
	return err
}

// ThirdPartyFrom is ThirdParty resuming at a byte offset: REST is
// issued on both control channels, so src retransmits only [offset, …)
// and dst appends it to the partial object whose Size is the offset —
// the resume-aware retry path that re-sends at most one reassembly
// window of duplicates instead of the whole object.
//
// dstEngaged reports whether dst accepted the STOR command; only then
// may a resume-aware retry trust the destination object's SIZE as this
// job's watermark (before, a pre-existing object is untouched). size is
// the region length src announced in its RETR 150 ("(N bytes)"), even
// when the transfer then fails, and -1 when there was none.
//
// When both servers end a copy with a cached-channel 226, src and dst
// remember each other (see pair), and their next copy together skips
// PASV and PORT. The copy is pipelined (DESIGN §3): STOR to dst and RETR
// to src go out back to back, and then dst's 150, src's 150, src's 226
// and dst's 226 are read in order, one control round trip. Each REST's
// 350 is read before either verb goes out, since a STOR sent behind a
// rejected REST would truncate the partial object. The first failure
// ends the reading, and each client then drains what it is still owed.
func ThirdPartyFrom(src, dst *Client, srcName, dstName string, offset int64) (size int64, dstEngaged bool, err error) {
	switch {
	case offset < 0:
		return -1, false, errors.New("gridftp: negative restart offset")
	case src.desynced || dst.desynced: // a REST sent to the other would be orphaned
		return -1, false, ErrDesynced
	}
	if paired(src, dst) {
		src.met.reuses.Inc()
	} else if err := pointAt(src, dst); err != nil {
		return -1, false, err
	}
	defer func() {
		src.drain()
		dst.drain()
		if err == nil {
			pair(src, dst)
		}
	}()
	if offset > 0 {
		rest := "REST " + strconv.FormatInt(offset, 10)
		for _, c := range []*Client{dst, src} {
			if _, err := c.do("REST", rest, 350); err != nil {
				return -1, false, err
			}
		}
	}
	if err := dst.send("STOR ", dstName); err != nil {
		return -1, false, err
	}
	serr := src.send("RETR ", srcName)
	_, err = dst.answer()
	size, dstEngaged = -1, err == nil
	if serr == nil {
		var opening Reply
		if opening, serr = src.answer(); serr == nil {
			size = announcedSize(opening.Text)
		}
	}
	if err = cmp.Or(err, serr); err == nil {
		if _, err = src.answer(); err == nil {
			_, err = dst.answer()
		}
	}
	return size, dstEngaged, err
}

// announcedSize parses the "(N bytes)" of a RETR 150, the wu-ftpd form
// this server and most others send; -1 when the text carries no size.
func announcedSize(text string) int64 {
	end := strings.LastIndex(text, " bytes)")
	start := strings.LastIndexByte(text[:max(end, 0)], '(')
	if start < 0 {
		return -1
	}
	size, err := strconv.ParseInt(text[start+1:end], 10, 64)
	if err != nil || size < 0 {
		return -1
	}
	return size
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
