package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gftpvc/internal/pacing"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/usagestats"
)

// Config configures a Server.
type Config struct {
	// Addr is the control-channel listen address ("127.0.0.1:0" for an
	// ephemeral port).
	Addr string
	// Store is the data backend. It must also implement ReaderAtStore
	// (RETR and CKSM read a pinned io.ReaderAt, never a whole object)
	// and StreamPutter (STOR always flows through the window);
	// SnapshotStore and PutAborter are used when present.
	Store Store
	// Stripes is the number of stripe data movers (>=1). SPAS exposes one
	// data listener per stripe.
	Stripes int
	// BlockSize is the MODE E block payload size (default 256 KiB).
	BlockSize int
	// ServerHost is the identity recorded in usage logs (defaults to the
	// listen address).
	ServerHost string
	// Auth validates credentials; nil accepts any USER/PASS.
	Auth func(user, pass string) bool
	// UsageAddr, when set, is the UDP usage-stats collector to notify at
	// the end of every transfer, as Globus servers do.
	UsageAddr string
	// LogWriter, when set, receives the local transfer log lines.
	LogWriter io.Writer
	// AcceptTimeout bounds how long a transfer waits for the client's
	// data connections (default 10s).
	AcceptTimeout time.Duration
	// DataTimeout bounds each read or write on a data connection
	// (default 30s; negative disables): a stalled peer surfaces as a
	// 426 instead of pinning a transfer goroutine forever.
	DataTimeout time.Duration
	// IdleTimeout bounds how long a session may sit between
	// control-channel commands before the server hangs up (default 5m;
	// negative disables).
	IdleTimeout time.Duration
	// MaxObjectSize caps the size of an object STOR will assemble
	// (default 4 GiB). MODE E frames carry 64-bit offsets, so without a
	// cap a single malicious frame could demand an arbitrary allocation.
	MaxObjectSize int64
	// WindowSize is the sliding reassembly window every STOR receives
	// through (default 8 MiB; negative is rejected by Serve). It bounds
	// per-transfer receive memory regardless of object size and is the
	// resume granularity: a failed transfer leaves at most one window
	// of received-but-unflushed bytes to re-send.
	WindowSize int
	// DataListen opens the passive data listeners (default net.Listen).
	// Fault-injection and listener-leak tests substitute wrappers here.
	DataListen func(network, addr string) (net.Listener, error)
	// ControlListen opens the control-channel listener (default
	// net.Listen). The C10k bench substitutes an in-memory listener here
	// so session counts are not bounded by the fd table.
	ControlListen func(network, addr string) (net.Listener, error)
	// MaxSessions caps concurrent control-channel sessions; connections
	// beyond the cap are shed with a 421 greeting instead of growing the
	// session table without bound (0 = unlimited).
	MaxSessions int
	// MaxRateBps caps each session's aggregate data-channel rate, in
	// bits per second (0 = unshaped). The cap is enforced by a
	// per-session token bucket shared across all of the session's
	// transfers and parallel streams, so one session cannot exceed its
	// allocation by opening more connections. SITE RATE lets a client
	// request a lower session rate (e.g. the broker-reserved circuit
	// rate); the effective rate is the request clamped by this cap.
	MaxRateBps int64
	// AggregateRateBps caps the server's total data-plane rate across
	// ALL sessions, in bits per second (0 = uncapped) — the live
	// enforcement of the paper's R, the aggregate DTN capacity that
	// concurrent transfers compete for (Eq. 2). One shared token bucket
	// chokes every data connection the server opens, so N concurrent
	// sessions genuinely divide R between them the way the host model
	// assumes, and a fleet dispatcher can treat R − Σ measured rates as
	// this replica's real headroom.
	AggregateRateBps int64
	// Telemetry, when set, receives the server's live instrument
	// streams: registry metrics, per-transfer phase spans, and the
	// 30-second per-stripe byte counters. Nil disables instrumentation.
	Telemetry *telemetry.Hub
}

// nConnShards stripes the session registry. At C10k concurrency a
// single registration mutex is the hottest lock in the accept path;
// sixteen shards keyed round-robin cut that contention 16x while Close
// still reaches every session with a bounded sweep.
const nConnShards = 16

// connShard is one stripe of the session registry.
type connShard struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Server is a GridFTP server.
type Server struct {
	cfg Config
	// The store's capabilities, resolved once by Serve so no transfer
	// path type-asserts: reads is required, snaps (a pinned version per
	// transfer) and aborts (per-put resource release) are nil when the
	// store does not offer them.
	reads  ReaderAtStore
	snaps  SnapshotStore
	puts   StreamPutter
	aborts PutAborter

	ln     net.Listener
	addr   string // ln.Addr().String(), formatted once by Serve
	sender *usagestats.Sender
	met    *srvMetrics
	// agg is the server-wide data-plane bucket (AggregateRateBps); nil
	// when the server's aggregate is uncapped. Shared by every data
	// connection of every session, composed with each session's own
	// bucket in dataConns.
	agg *pacing.Bucket

	wg      sync.WaitGroup
	connSeq atomic.Uint64
	active  atomic.Int64
	closed  atomic.Bool
	shards  [nConnShards]connShard

	mu      sync.Mutex          // guards logs, logHead and stors
	logs    []usagestats.Record // ring of the last maxLogRecords, oldest at logHead once full
	logHead int
	// stors holds the objects a STOR is writing. An entry's channel is
	// nil until a second STOR of the object waits, and is closed when
	// the claim ends.
	stors map[string]chan struct{}
}

// maxLogRecords is how many transfer records a server keeps.
const maxLogRecords = 1024

// addConn registers a session connection into its shard; false means
// the server is closing and the connection must not be served.
func (s *Server) addConn(c net.Conn) (int, bool) {
	idx := int(s.connSeq.Add(1) % nConnShards)
	sh := &s.shards[idx]
	sh.mu.Lock()
	// Re-check closed under the shard lock: Close sweeps each shard
	// after storing the flag, so a registration that saw closed==false
	// here is guaranteed to be swept.
	if s.closed.Load() {
		sh.mu.Unlock()
		return 0, false
	}
	if sh.conns == nil {
		sh.conns = make(map[net.Conn]struct{})
	}
	sh.conns[c] = struct{}{}
	sh.mu.Unlock()
	s.met.shardSession(idx, 1)
	return idx, true
}

// claimPut makes name one STOR's to write, waiting up to the accept
// timeout for another session's STOR of it to settle: two puts of one
// object would interleave its regions. unclaim(name) ends the claim. An
// uncontended claim allocates nothing: the first waiter makes the
// channel the claim's end closes.
func (s *Server) claimPut(name string) bool {
	var timeout <-chan time.Time
	s.mu.Lock()
	for {
		busy, claimed := s.stors[name]
		if !claimed {
			break
		}
		if busy == nil {
			busy = make(chan struct{})
			s.stors[name] = busy
		}
		s.mu.Unlock()
		if timeout == nil {
			timeout = time.After(s.cfg.AcceptTimeout)
		}
		select {
		case <-busy:
		case <-timeout:
			return false
		}
		s.mu.Lock()
	}
	s.stors[name] = nil
	s.mu.Unlock()
	return true
}

// unclaim ends a claim claimPut made, waking the STORs waiting on it.
func (s *Server) unclaim(name string) {
	s.mu.Lock()
	busy := s.stors[name]
	delete(s.stors, name)
	s.mu.Unlock()
	if busy != nil {
		close(busy)
	}
}

// dropConn removes a session connection from its shard.
func (s *Server) dropConn(idx int, c net.Conn) {
	sh := &s.shards[idx]
	sh.mu.Lock()
	delete(sh.conns, c)
	sh.mu.Unlock()
	s.met.shardSession(idx, -1)
}

// Serve starts a server. Callers must Close it.
func Serve(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("gridftp: nil store")
	}
	if cfg.Stripes == 0 {
		cfg.Stripes = 1
	}
	if cfg.Stripes < 1 {
		return nil, errors.New("gridftp: stripes must be >= 1")
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 256 << 10
	}
	if cfg.BlockSize < 1 {
		return nil, errors.New("gridftp: block size must be positive")
	}
	if cfg.AcceptTimeout == 0 {
		cfg.AcceptTimeout = 10 * time.Second
	}
	switch {
	case cfg.DataTimeout == 0:
		cfg.DataTimeout = 30 * time.Second
	case cfg.DataTimeout < 0:
		cfg.DataTimeout = 0
	}
	switch {
	case cfg.IdleTimeout == 0:
		cfg.IdleTimeout = 5 * time.Minute
	case cfg.IdleTimeout < 0:
		cfg.IdleTimeout = 0
	}
	if cfg.MaxObjectSize == 0 {
		cfg.MaxObjectSize = 4 << 30
	}
	if cfg.MaxObjectSize < 0 {
		return nil, errors.New("gridftp: max object size must be positive")
	}
	if cfg.MaxRateBps < 0 {
		return nil, errors.New("gridftp: max rate must be >= 0")
	}
	if cfg.AggregateRateBps < 0 {
		return nil, errors.New("gridftp: aggregate rate must be >= 0")
	}
	if cfg.WindowSize == 0 {
		cfg.WindowSize = 8 << 20
	}
	if cfg.WindowSize < 0 {
		return nil, errors.New("gridftp: window size must be positive")
	}
	reads, okR := cfg.Store.(ReaderAtStore)
	puts, okW := cfg.Store.(StreamPutter)
	if !okR || !okW {
		return nil, errors.New("gridftp: store must implement ReaderAtStore and StreamPutter")
	}
	if cfg.DataListen == nil {
		cfg.DataListen = net.Listen
	}
	if cfg.ControlListen == nil {
		cfg.ControlListen = net.Listen
	}
	ln, err := cfg.ControlListen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	if cfg.ServerHost == "" {
		cfg.ServerHost = addr
	}
	s := &Server{cfg: cfg, reads: reads, puts: puts, ln: ln, addr: addr, met: newSrvMetrics(cfg.Telemetry),
		stors: make(map[string]chan struct{})}
	s.snaps, _ = cfg.Store.(SnapshotStore)
	s.aborts, _ = cfg.Store.(PutAborter)
	s.agg = pacing.NewBucket(cfg.AggregateRateBps, 0)
	if cfg.UsageAddr != "" {
		snd, err := usagestats.NewSender(cfg.UsageAddr)
		if err != nil {
			ln.Close()
			return nil, err
		}
		s.sender = snd
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the control-channel address.
func (s *Server) Addr() string { return s.addr }

// Records returns the last maxLogRecords transfer records, oldest first.
func (s *Server) Records() []usagestats.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]usagestats.Record, 0, len(s.logs))
	out = append(out, s.logs[s.logHead:]...)
	return append(out, s.logs[:s.logHead]...)
}

// Close stops the server and waits for in-flight sessions.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	// Unblock sessions parked on control-channel reads. Registrations
	// racing Close re-check the flag under their shard lock, so every
	// admitted connection is either swept here or refused there.
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for c := range sh.conns {
			c.Close()
		}
		sh.mu.Unlock()
	}
	err := s.ln.Close()
	s.wg.Wait()
	if s.sender != nil {
		s.sender.Close()
	}
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// reject sheds an over-limit connection with a 421 greeting on its own
// goroutine (deadline-bounded) so a blocked writer cannot stall accept.
func (s *Server) reject(conn net.Conn) {
	s.met.sessionRejected()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer conn.Close()
		conn.SetWriteDeadline(time.Now().Add(s.cfg.AcceptTimeout))
		fmt.Fprintf(conn, "421 too many sessions (%d active, limit %d), try again later\r\n",
			s.active.Load(), s.cfg.MaxSessions)
	}()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Only Close ends the loop. Any other failure (EMFILE, an
			// aborted handshake) is retried after a backoff of 5 ms
			// doubling to 1 s, as net/http does, so one failed Accept
			// cannot leave the server up but deaf, and Close waits at
			// most one step.
			if s.closed.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if max := int64(s.cfg.MaxSessions); max > 0 && s.active.Load() >= max {
			s.reject(conn)
			continue
		}
		idx, ok := s.addConn(conn)
		if !ok {
			conn.Close()
			return
		}
		s.active.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.active.Add(-1)
			s.dropConn(idx, conn)
		}()
	}
}

// session is one control-channel connection: its protocol state, and
// the I/O that state's effects run on.
type session struct {
	srv  *Server
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	st   sessionState

	// passive holds the listeners of an armed PASV or SPAS target;
	// cached holds the data channels the last transfer kept (see settle).
	// Both are nil unless st.target says so.
	passive []net.Listener
	cached  []*dataChan
	// bucket enforces the effective session rate across every data
	// connection the session opens. Only the session goroutine mutates
	// it; data-path goroutines capture the pointer at transfer setup.
	bucket *pacing.Bucket
	// pubRate is this session's contribution to the server's shaped-rate
	// gauge (the effective rate last published); only the session
	// goroutine mutates it, and teardown retracts it.
	pubRate int64

	// Kept across transfers, so a transfer allocates none of them: the
	// transfer in flight with its span, its pumps' outcomes and all but
	// its first pump, the usage records' client host, and the STOR
	// window, which openStor re-arms and finish empties.
	tx     transferCtx
	errs   []error
	pumps  sync.WaitGroup
	remote string
	win    WindowAssembler
}

// applyRate rebinds the session bucket to the effective rate eff. An
// existing bucket is re-rated in place — tokens and debt carry over, so
// re-negotiating mid-session cannot mint a free burst — and shaping is
// only ever dropped when no rate applies at all.
func (sess *session) applyRate(eff int64) {
	switch {
	case eff <= 0:
		sess.bucket = nil
	case sess.bucket != nil:
		sess.bucket.SetRate(eff)
	default:
		sess.bucket = pacing.NewBucket(eff, 0)
	}
	// Publish the delta into the server's shaped-rate gauge: the summed
	// per-session commitments a fleet registry reads as this replica's
	// already-promised capacity.
	sess.srv.met.shapedRate.Add(eff - sess.pubRate)
	sess.pubRate = eff
}

// handle serves one accepted control connection.
func (s *Server) handle(conn net.Conn) { s.newSession(conn).serve() }

// newSession builds the session state for a control connection.
func (s *Server) newSession(conn net.Conn) *session {
	return &session{
		srv:  s,
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
		st:   sessionState{auth: s.cfg.Auth, stripes: s.cfg.Stripes, maxRate: s.cfg.MaxRateBps, parallelism: 1},
	}
}

// serve runs the session from its greeting to its end.
func (sess *session) serve() {
	s, conn := sess.srv, sess.conn
	sess.applyRate(sess.st.effectiveRate()) // engage the server-wide cap before any transfer
	s.met.sessionsTotal.Inc()
	s.met.sessionsActive.Inc()
	s.met.hub.Event("", "session_accepted", conn.RemoteAddr().String())
	defer s.met.sessionsActive.Dec()
	defer func() { s.met.shapedRate.Add(-sess.pubRate) }()
	defer sess.dropTarget()
	defer conn.Close()
	sess.reply(220, "gftpvc GridFTP server ready")
	for {
		if idle := s.cfg.IdleTimeout; idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		line, err := readLine(sess.r)
		if err == errLongLine {
			sess.reply(500, "command line too long")
			return
		}
		if err != nil {
			return
		}
		verb, arg, _ := strings.Cut(string(line), " ")
		if sess.dispatch(strings.ToUpper(verb), arg) {
			return
		}
	}
}

func (sess *session) reply(code int, text string) { sess.replyLines(code, nil, text, -1, "") }

// replyLines writes a reply under a write deadline, so a client that
// stops reading cannot pin the session goroutine. Its last line carries
// n and tail as replyLine describes.
func (sess *session) replyLines(code int, lines []string, last string, n int64, tail string) {
	if idle := sess.srv.cfg.IdleTimeout; idle > 0 {
		sess.conn.SetWriteDeadline(time.Now().Add(idle))
	}
	for _, l := range lines {
		sess.replyLine(code, '-', l, -1, "")
	}
	sess.replyLine(code, ' ', last, n, tail)
	sess.w.Flush()
}

// replyLine writes one line: code, sep and text, then " (n bytes)" when
// n >= 0, then tail. It is composed in the writer's free buffer, so a
// reply costs no string.
func (sess *session) replyLine(code int, sep byte, text string, n int64, tail string) {
	b := append(strconv.AppendInt(sess.w.AvailableBuffer(), int64(code), 10), sep)
	if b = append(b, text...); n >= 0 {
		b = append(strconv.AppendInt(append(b, " ("...), n, 10), " bytes)"...)
	}
	sess.w.Write(append(append(b, tail...), "\r\n"...))
}

// dispatch runs one command: the session state decides it, and the
// session runs the effect. It returns true when the session ends.
func (sess *session) dispatch(verb, arg string) bool {
	sess.srv.met.command(verb)
	e := sess.st.apply(verb, arg)
	if e.event != "" {
		sess.srv.met.hub.Event(sess.st.trace.TraceID, e.event, e.detail)
	}
	switch e.kind {
	case effArm:
		sess.st.armed(sess.arm(e.target))
		return false
	case effTransfer:
		sess.transfer(e)
		return false
	case effQuery:
		sess.query(e)
		return false
	case effPort, effDrop:
		sess.dropTarget()
	case effRate:
		sess.applyRate(e.rate)
	}
	sess.replyLines(e.code, e.lines, e.text, -1, "")
	return e.kind == effQuit
}

// arm drops the data target and opens t's listeners, reporting their
// addresses: PASV one, in the classic 227 host-port encoding; SPAS one
// per stripe, always in the 229 multi-line form. The listeners bind the
// control connection's local IPv4 address (loopback for an in-memory
// control connection), since the h1,h2,h3,h4 encoding has no other
// form; a control connection without one gets a 425 and no listener.
// It reports whether every listener opened.
func (sess *session) arm(t dataTarget) bool {
	fail := func(msg string) bool {
		sess.dropTarget()
		sess.reply(425, msg)
		return false
	}
	sess.dropTarget()
	host := "127.0.0.1"
	if ta, ok := sess.conn.LocalAddr().(*net.TCPAddr); ok {
		ip4 := ta.IP.To4()
		if ip4 == nil {
			return fail("passive mode needs an IPv4 control connection")
		}
		host = ip4.String()
	}
	addrs := make([]string, 0, t.n)
	for i := 0; i < t.n; i++ {
		ln, err := sess.srv.cfg.DataListen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			return fail("cannot open data listener")
		}
		sess.passive = append(sess.passive, ln)
		sess.srv.met.listenersOpen.Inc()
		hp := hostPortString(ln.Addr())
		if hp == "" {
			return fail("data listener has no IPv4 address")
		}
		addrs = append(addrs, hp)
	}
	if !t.striped {
		sess.reply(227, "entering passive mode ("+addrs[0]+")")
		return true
	}
	lines := []string{"Entering striped passive mode"}
	for _, a := range addrs {
		lines = append(lines, " "+a)
	}
	sess.replyLines(229, lines, "end", -1, "")
	return true
}

// query runs a store query: SIZE, NLST or CKSM.
func (sess *session) query(e effect) {
	store := sess.srv.cfg.Store
	switch e.op {
	case "SIZE":
		n, err := store.Size(e.name)
		if err != nil {
			sess.reply(550, err.Error())
			return
		}
		sess.reply(213, strconv.FormatInt(n, 10))
	case "NLST":
		names, err := store.List(e.name)
		if err != nil {
			sess.reply(550, err.Error())
			return
		}
		lines := make([]string, 0, len(names)+1)
		lines = append(lines, "listing")
		for _, n := range names {
			lines = append(lines, " "+n)
		}
		sess.replyLines(250, lines, fmt.Sprintf("%d objects", len(names)), -1, "")
	default:
		sess.cksm(e)
	}
}

// hostPortString renders a TCP address in FTP h1,h2,h3,h4,p1,p2 form,
// or "" when a is not a TCP address with an IPv4 form.
func hostPortString(a net.Addr) string {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return ""
	}
	ip4 := ta.IP.To4()
	if ip4 == nil {
		return ""
	}
	return fmt.Sprintf("%d,%d,%d,%d,%d,%d",
		ip4[0], ip4[1], ip4[2], ip4[3], ta.Port/256, ta.Port%256)
}

// parseHostPort parses the FTP h1,h2,h3,h4,p1,p2 form into "ip:port".
func parseHostPort(s string) (string, error) {
	parts := strings.Split(strings.TrimSpace(s), ",")
	if len(parts) != 6 {
		return "", errors.New("bad host-port")
	}
	nums := make([]int, 6)
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 || n > 255 {
			return "", errors.New("bad host-port")
		}
		nums[i] = n
	}
	ip := fmt.Sprintf("%d.%d.%d.%d", nums[0], nums[1], nums[2], nums[3])
	return net.JoinHostPort(ip, strconv.Itoa(nums[4]*256+nums[5])), nil
}

// dataChan is one data connection, on either endpoint: the raw socket,
// the frame buffers read and sent through it, and one transfer's
// instrumented view of it (conn, which fr reads through: ic, refilled
// per transfer, under any pacing). A server transfer that is not
// striped and replies 226 keeps its dataChans as the session's cached
// channels (see settle); a client keeps its own when that 226 says so
// (see Client.transfer).
type dataChan struct {
	raw    net.Conn
	stripe string
	ic     instrumentedConn
	conn   net.Conn
	fr     frameReader // bytes read past an EOD stay for the next transfer
	send   []byte      // sendBlocks's frame buffer
	cached bool        // counted in the cached-channels gauge
	peek   idlePeek    // the client's stale check of raw (see idleChans)
}

// close drops the channel and its share of the cached-channels gauge;
// a second close changes nothing.
func (dc *dataChan) close(met *srvMetrics) {
	dc.raw.Close()
	if dc.cached {
		dc.cached = false
		met.cachedChans.Dec()
	}
}

// dataConns provides the data connections for a transfer over target
// t: the cached channels, connections accepted on the passive listeners
// (parallelism conns on PASV's single listener, or one per SPAS stripe
// listener), or one dialed to the PORT address. Every connection
// is instrumented afresh (see instrumentedConn) to count wire bytes
// into the transfer context, the span, and the per-stripe live byte
// counters.
func (sess *session) dataConns(tx *transferCtx, t dataTarget) ([]*dataChan, error) {
	met := sess.srv.met
	// The session bucket (SITE RATE / Config.MaxRateBps) is shared by
	// every connection wrapped here — cached, active and passive alike
	// shape through this one choke point, so a session's aggregate rate
	// holds no matter how many streams or stripes it opens. The
	// server-wide bucket (AggregateRateBps, the paper's R) composes on
	// top: every byte must clear both, so concurrent sessions divide R
	// between them.
	var lim *pacing.Limiter
	var shaped *telemetry.Counter
	if b, agg := sess.bucket, sess.srv.agg; b != nil || agg != nil {
		lim = pacing.NewLimiter(agg, b)
		shaped = met.shapedBytes(tx.op)
	}
	wrap := func(dc *dataChan) *dataChan {
		dc.ic = instrumentedConn{
			Conn:   dc.raw,
			idle:   sess.srv.cfg.DataTimeout,
			wire:   &tx.wire,
			live:   met.hub.LiveCounter(dc.stripe),
			span:   &tx.span,
			shaped: shaped,
		}
		dc.conn = wrapDataConn(context.Background(), &dc.ic, lim)
		dc.fr.r = dc.conn
		return dc
	}
	open := func(c net.Conn, stripe string) *dataChan {
		met.dataConns.Inc()
		return wrap(&dataChan{raw: c, stripe: stripe})
	}
	switch t.kind {
	case cachedTarget:
		chans := sess.cached
		sess.cached = nil
		met.chanReuses.Inc()
		for _, dc := range chans {
			wrap(dc)
		}
		return chans, nil
	case portTarget:
		c, err := net.DialTimeout("tcp", t.addr, sess.srv.cfg.AcceptTimeout)
		if err != nil {
			met.acceptErrors.Inc()
			return nil, err
		}
		return []*dataChan{open(c, "active")}, nil
	case noTarget:
		return nil, errors.New("no PASV/SPAS/PORT before transfer")
	}
	// Passive: PASV's one listener takes parallelism connections, SPAS
	// one per stripe listener.
	stripes := len(sess.passive)
	want := sess.st.parallelism
	if t.striped {
		want = stripes
	}
	chans := make([]*dataChan, 0, want)
	for i := 0; i < want; i++ {
		ln := sess.passive[i%stripes]
		setListenerDeadline(ln, time.Now().Add(sess.srv.cfg.AcceptTimeout))
		c, err := ln.Accept()
		if err != nil {
			met.acceptErrors.Inc()
			for _, dc := range chans {
				dc.close(met)
			}
			return nil, err
		}
		chans = append(chans, open(c, fmt.Sprintf("stripe%d", i%stripes)))
	}
	return chans, nil
}

// dropTarget closes what the session holds for a data target: armed
// listeners and cached channels. Listeners serve exactly one transfer
// attempt, win or lose, so a session looping transfers does not
// accumulate open sockets; only settle keeps a channel past one.
func (sess *session) dropTarget() {
	for _, ln := range sess.passive {
		ln.Close()
	}
	sess.srv.met.listenersOpen.Add(-int64(len(sess.passive)))
	sess.passive = nil
	for _, dc := range sess.cached {
		dc.close(sess.srv.met)
	}
	sess.cached = nil
}

// beginTransfer opens one transfer attempt's instrumentation: the
// phase span (data_setup -> stream -> teardown) and the wire-byte
// tally the failure path reports as the partial count. The session's
// one transfer record is reset for it, and its span begun in place;
// with telemetry off the span is never begun and every operation on it
// is a no-op.
func (sess *session) beginTransfer(e effect) *transferCtx {
	sess.tx = transferCtx{
		op:      e.op,
		name:    e.name,
		offset:  e.offset,
		start:   time.Now(),
		stripes: max(e.target.n, 1),
	}
	tx := &sess.tx
	sess.srv.met.hub.Spans().Begin(&tx.span, e.op, e.name, telemetry.PhaseSetup)
	if trace := sess.st.trace; trace.TraceID != "" {
		tx.span.SetTrace(trace.TraceID, trace.ParentSID)
	}
	return tx
}

// transfer runs a transfer effect through the skeleton every RETR,
// ERET and STOR shares: open the source or sink -> 150 -> data
// connections -> one pump per connection -> wait -> finish -> settle.
// Opening leaves the direction's state in tx, or rejects the transfer
// with a nonzero code, having released what it acquired by then.
func (sess *session) transfer(e effect) {
	tx := sess.beginTransfer(e)
	code, msg := e.code, e.text
	if code == 0 {
		if e.op == "stor" {
			code, msg = sess.openStor(tx)
		} else {
			tx.blocks.at, tx.region, code, msg = sess.srv.openRegion(e.name, e.offset, e.length)
			tx.blocks.pos, tx.blocks.end, tx.blocks.blockSize = e.offset, e.offset+tx.region, sess.srv.cfg.BlockSize
		}
		if code == 0 {
			code, msg = sess.finish(sess.moveData(tx, e.target))
		}
	}
	sess.settle(tx, code, msg)
}

// moveData is the data phase: it announces the transfer, establishes
// the data connections, runs one pump per connection, and reports 226,
// 425 (no data connection) or 426 (a pump failed). A RETR's 150
// announces the region length in the wu-ftpd form "(N bytes)", so a
// client learns the size it is about to receive without a SIZE round
// trip.
func (sess *session) moveData(tx *transferCtx, t dataTarget) (int, string) {
	sess.replyLines(150, nil, "opening data connection", tx.region, "")
	chans, err := sess.dataConns(tx, t)
	if err != nil {
		return 425, "data connection failed: " + err.Error()
	}
	tx.conns = len(chans)
	tx.span.SetStreams(len(chans))
	tx.span.Phase(telemetry.PhaseStream)
	sess.errs = slices.Grow(sess.errs[:0], len(chans))[:len(chans)]
	for i := 1; i < len(chans); i++ {
		sess.pumps.Add(1)
		go func() { defer sess.pumps.Done(); sess.pump(tx, chans, i) }()
	}
	sess.pump(tx, chans, 0)
	sess.pumps.Wait()
	tx.span.Phase(telemetry.PhaseTeardown)
	tx.keep = chans // settle keeps them on a 226, or closes them
	for _, e := range sess.errs {
		if e != nil {
			return 426, "transfer aborted: " + e.Error()
		}
	}
	if t.striped {
		tx.keep = nil
		for _, dc := range chans {
			dc.close(sess.srv.met)
		}
	}
	return 226, "transfer complete"
}

// pump moves chans[i]'s share of the transfer: a RETR's batches as
// that connection claims them, or a STOR's drain into the window. A
// failure aborts the window, waking parked siblings, and closes
// chans[i] so the peer sees it now.
func (sess *session) pump(tx *transferCtx, chans []*dataChan, i int) {
	dc, err := chans[i], error(nil)
	if tx.asm == nil {
		dc.send, err = sendBlocks(&tx.blocks, dc.conn, dc.send)
	} else if _, err = tx.asm.drain(&dc.fr, len(chans), uint64(sess.srv.cfg.MaxObjectSize)); err != nil {
		tx.asm.Abort(err) // first error wins
	}
	if sess.errs[i] = err; err != nil {
		dc.close(sess.srv.met)
	}
}

// settle ends a transfer attempt, and is the only code that writes a
// completion reply. The reply goes last: by the time a client can act
// on it the usage record exists, the metrics are published, the span is
// in the hub's ended ring, and the data listeners are closed (the
// source snapshot and the put were released by finish), and the transfer's data channels are cached on a 226, said so
// in the reply, or closed. Unlike success-only Globus loggers a
// failure still emits a usage record — carrying the error code and the
// partial wire-byte count — so live failure rates are observable.
func (sess *session) settle(tx *transferCtx, code int, msg string) {
	met := sess.srv.met
	wire := tx.wire.Load()
	size, logCode := tx.size, 0
	var err error
	if code >= 400 {
		met.hub.Event(sess.st.trace.TraceID, "reply_error", fmt.Sprintf("%s: %d %s", tx.op, code, msg))
		size, logCode, err = wire, code, fmt.Errorf("%d %s", code, msg)
	}
	sess.logTransfer(tx, size, logCode)
	met.transferDone(tx.op, code, wire, time.Since(tx.start).Seconds())
	met.deliveredBytes(tx.op, tx.delivered)
	tx.span.End(err)
	sess.dropTarget()
	for _, dc := range tx.keep {
		switch {
		case code != 226:
			dc.close(met)
		case !dc.cached:
			dc.cached = true
			met.cachedChans.Inc()
		}
	}
	tail := ""
	if code == 226 && len(tx.keep) > 0 {
		sess.cached, tail = tx.keep, "; "+channelCached
	}
	tx.keep = nil
	sess.st.settled(len(sess.cached))
	sess.replyLines(code, nil, msg, -1, tail)
}

// openRegion pins the named object for reading and bounds the region
// [offset, offset+length) to it (length < 0: to the end). The pin is
// one immutable version for the whole read when the store offers
// snapshots — so a concurrent Put can't interleave versions the way
// per-block store lookups would — else per-read lookups against a
// version-stable store. A nonzero code rejects the read with nothing
// pinned; otherwise release(src) must be called once the reads are done
// (disk-backed snapshots are open file handles).
func (s *Server) openRegion(name string, offset, length int64) (src io.ReaderAt, n int64, code int, msg string) {
	var size int64
	var err error
	if s.snaps == nil {
		src = storeReaderAt{s: s.reads, name: name}
		size, err = s.cfg.Store.Size(name)
	} else {
		src, size, err = s.snaps.SnapshotObject(name)
	}
	switch {
	case err != nil:
		return nil, 0, 550, err.Error()
	case offset > size:
		release(src)
		return nil, 0, 551, "offset beyond object size"
	}
	n = size - offset
	if length >= 0 && length < n {
		n = length
	}
	return src, n, 0, ""
}

// release ends openRegion's pin on src, closing a snapshot that has to be.
func release(src io.ReaderAt) {
	if c, ok := src.(io.Closer); ok {
		c.Close()
	}
}

// storeReaderAt adapts one object of a ReaderAtStore to io.ReaderAt,
// for stores that stream but don't offer snapshots.
type storeReaderAt struct {
	s    ReaderAtStore
	name string
}

func (r storeReaderAt) ReadAt(p []byte, off int64) (int, error) {
	return r.s.ReadObjectAt(r.name, p, off)
}

// cksm answers the GridFTP checksum command, the integrity-verification
// hook transfer managers call after a third-party transfer: the CRC32
// of the region e names. It reads the same pinned source RETR does,
// one block at a time, so checksumming costs a block of memory whatever
// the object's size.
func (sess *session) cksm(e effect) {
	src, n, code, msg := sess.srv.openRegion(e.name, e.offset, e.length)
	if code != 0 {
		sess.reply(code, msg)
		return
	}
	defer release(src)
	sum := crc32.NewIEEE()
	region := io.NewSectionReader(src, e.offset, n)
	if _, err := io.CopyBuffer(sum, region, make([]byte, sess.srv.cfg.BlockSize)); err != nil {
		sess.reply(550, err.Error())
		return
	}
	sess.reply(213, fmt.Sprintf("%08x", sum.Sum32()))
}

// finish takes the session transfer's data-phase outcome and returns
// its final one, releasing what opening it acquired: a RETR's pinned
// source; a STOR's claim, and on failure the store's per-put resources
// (DirStore's open partial handle), though the flushed watermark that a
// resume probes via SIZE survives. A STOR's 226 needs a complete window
// and a sealed put.
func (sess *session) finish(code int, msg string) (int, string) {
	tx, srv := &sess.tx, sess.srv
	if tx.asm == nil {
		release(tx.blocks.at)
		tx.blocks.at = nil
		if code == 226 {
			tx.size, tx.delivered = tx.region, tx.region
		}
		return code, msg
	}
	asm := tx.asm
	tx.delivered = asm.Delivered()
	if asm.DuplicateBytes() > 0 {
		tx.wireRec = asm.WireBytes()
	}
	if code == 226 {
		tx.size = int64(asm.Flushed())
		if err := asm.Finish(); err != nil {
			code, msg = 426, "transfer aborted: "+err.Error()
		} else if err := srv.puts.FinishPut(tx.name, tx.size); err != nil {
			code, msg = 552, "store failed: "+err.Error()
		}
	}
	if code != 226 && srv.aborts != nil {
		_ = srv.aborts.AbortPut(tx.name)
	}
	srv.unclaim(tx.name)
	asm.reset(windowState{}) // an idle session keeps no window bytes
	tx.asm = nil
	return code, msg
}

// regionSink adapts a StreamPutter to the io.Writer a window assembler
// flushes into: writes arrive contiguous and ascending from the
// restart base, so each one commits the next region of the object.
type regionSink struct {
	sp   StreamPutter
	name string
	off  int64
}

func (s *regionSink) Write(p []byte) (int, error) {
	if err := s.sp.PutRegion(s.name, s.off, p); err != nil {
		return 0, err
	}
	s.off += int64(len(p))
	return len(p), nil
}

// openStor opens a STOR, which receives the object through a bounded
// reassembly window: blocks from all data connections place into it, every
// contiguous run flushes to the store immediately, and a connection
// racing too far ahead parks until the window slides. Peak memory is
// the held runs, the bytes copied beyond the watermark that no sibling
// connection could carry the gap for: at most the window, nothing while
// blocks arrive in order, and independent of object size. Because
// BeginPut pins the stored object to the delivered watermark, a failed
// transfer leaves a partial whose Size is exactly the restart offset a
// resume-aware client probes for.
// A nonzero offset (REST) resumes such a partial: delivery starts at
// that watermark, dropping any overlap the sender re-transmits.
func (sess *session) openStor(tx *transferCtx) (int, string) {
	srv := sess.srv
	tx.sink, tx.region = regionSink{sp: srv.puts, name: tx.name, off: tx.offset}, -1 // a STOR's 150 announces no length
	st, err := newWindowState(&tx.sink, uint64(tx.offset), -1, srv.cfg.WindowSize, srv.cfg.DataTimeout)
	if err != nil {
		return 451, err.Error()
	}
	if !srv.claimPut(tx.name) {
		return 450, "object busy: another STOR of it is in flight"
	}
	if err := srv.puts.BeginPut(tx.name, tx.offset); err != nil {
		srv.unclaim(tx.name)
		return 554, "restart rejected: " + err.Error()
	}
	if srv.met.hub != nil && sess.win.OnPark == nil {
		sess.win.OnPark = sess.parked
	}
	sess.win.reset(st)
	tx.asm = &sess.win
	return 0, ""
}

// parked flight-records a block parked on the session's STOR window.
func (sess *session) parked(off uint64) {
	sess.srv.met.hub.Event(sess.st.trace.TraceID, "block_parked", fmt.Sprintf("%s offset=%d", sess.tx.name, off))
}

// logTransfer appends a usage record to the local log and ships it to
// the usage collector, as Globus servers do at the end of each
// transfer. Unlike Globus loggers it also records failed and aborted
// transfers: code >= 400 marks the record failed and size carries the
// partial byte count.
func (sess *session) logTransfer(tx *transferCtx, size int64, code int) {
	start := tx.start
	// One stream per stripe when striped; transfers rejected before
	// data-channel setup still log, as one stream.
	stripes := tx.stripes
	streams := tx.conns
	if stripes > 1 || streams < 1 {
		streams = 1
	}
	typ := usagestats.Retrieve
	if tx.op == "stor" {
		typ = usagestats.Store
	}
	if sess.remote == "" {
		sess.remote, _, _ = net.SplitHostPort(sess.conn.RemoteAddr().String())
	}
	rec := usagestats.Record{
		Type:        typ,
		SizeBytes:   size,
		Start:       start.UTC(),
		DurationSec: time.Since(start).Seconds(),
		ServerHost:  sess.srv.cfg.ServerHost,
		RemoteHost:  sess.remote,
		Streams:     streams,
		Stripes:     stripes,
		BufferBytes: sess.st.sbuf,
		BlockBytes:  int64(sess.srv.cfg.BlockSize),
		Code:        code,
		WireBytes:   tx.wireRec,
	}
	if rec.DurationSec <= 0 {
		rec.DurationSec = 1e-6
	}
	srv := sess.srv
	srv.met.usageRecords.Inc()
	srv.mu.Lock()
	if len(srv.logs) < maxLogRecords {
		srv.logs = append(srv.logs, rec)
	} else {
		srv.logs[srv.logHead] = rec
		srv.logHead = (srv.logHead + 1) % maxLogRecords
	}
	srv.mu.Unlock()
	if srv.cfg.LogWriter != nil {
		fmt.Fprintln(srv.cfg.LogWriter, rec.Marshal())
	}
	if srv.sender != nil {
		// Usage packets are fire-and-forget in Globus too.
		_ = srv.sender.Send(rec)
	}
}
