package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
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
	stors   map[string]chan struct{} // objects a STOR is writing; closed when it settles
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
// object would interleave its regions. unclaim ends the claim.
func (s *Server) claimPut(name string) (unclaim func(), ok bool) {
	var timeout <-chan time.Time
	s.mu.Lock()
	for busy := s.stors[name]; busy != nil; busy = s.stors[name] {
		s.mu.Unlock()
		if timeout == nil {
			timeout = time.After(s.cfg.AcceptTimeout)
		}
		select {
		case <-busy:
		case <-timeout:
			return nil, false
		}
		s.mu.Lock()
	}
	done := make(chan struct{})
	s.stors[name] = done
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		delete(s.stors, name)
		s.mu.Unlock()
		close(done)
	}, true
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
	if cfg.ServerHost == "" {
		cfg.ServerHost = ln.Addr().String()
	}
	s := &Server{cfg: cfg, reads: reads, puts: puts, ln: ln, met: newSrvMetrics(cfg.Telemetry),
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
func (s *Server) Addr() string { return s.ln.Addr().String() }

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
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
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

// session is one control-channel connection's state.
type session struct {
	srv  *Server
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	user        string
	authed      bool
	binary      bool
	modeE       bool
	parallelism int
	bufferBytes int64

	// passive data listeners for the next transfer: PASV's one, or one
	// per stripe for SPAS. striped marks the SPAS form, whose transfer
	// takes one connection per listener rather than parallelism on one.
	passive []net.Listener
	striped bool
	// active mode target (PORT), mutually exclusive with passive.
	activeAddr string
	// cached is the data channel the last transfer kept (see settle);
	// the next transfer uses it. PASV, SPAS and PORT close it first, so
	// it is never set beside an armed target.
	cached *dataChan
	// restartOffset is set by REST and consumed by the next RETR or
	// STOR (resumed sends deliver from the offset onward).
	restartOffset int64
	// trace is the end-to-end trace context bound by SITE TRID; transfer
	// spans on this session link back to the sender's span through it.
	trace telemetry.TraceContext
	// rateBps is the session rate requested by SITE RATE (0 = none);
	// bucket enforces the effective rate — the request clamped by
	// Config.MaxRateBps — across every data connection the session
	// opens. Only the session goroutine mutates these; data-path
	// goroutines capture the bucket pointer at transfer setup.
	rateBps int64
	bucket  *pacing.Bucket
	// pubRate is this session's contribution to the server's shaped-rate
	// gauge (the effective rate last published); only the session
	// goroutine mutates it, and teardown retracts it.
	pubRate int64
}

// effectiveRate resolves the session's shaping rate: the SITE RATE
// request clamped by the server-wide cap; 0 means unshaped.
func (sess *session) effectiveRate() int64 {
	eff := sess.srv.cfg.MaxRateBps
	if sess.rateBps > 0 && (eff == 0 || sess.rateBps < eff) {
		eff = sess.rateBps
	}
	return eff
}

// applyRate rebinds the session bucket to the effective rate. An
// existing bucket is re-rated in place — tokens and debt carry over, so
// re-negotiating mid-session cannot mint a free burst — and shaping is
// only ever dropped when no rate applies at all.
func (sess *session) applyRate() {
	eff := sess.effectiveRate()
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

func (s *Server) handle(conn net.Conn) {
	sess := &session{
		srv:         s,
		conn:        conn,
		r:           bufio.NewReader(conn),
		w:           bufio.NewWriter(conn),
		parallelism: 1,
	}
	sess.applyRate() // engage the server-wide cap before any transfer
	s.met.sessionsTotal.Inc()
	s.met.sessionsActive.Inc()
	s.met.hub.Event("", "session_accepted", conn.RemoteAddr().String())
	defer s.met.sessionsActive.Dec()
	defer func() { s.met.shapedRate.Add(-sess.pubRate) }()
	defer sess.endTransfer()
	defer conn.Close()
	sess.reply(220, "gftpvc GridFTP server ready")
	for {
		if idle := s.cfg.IdleTimeout; idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		line, err := sess.r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		verb, arg, _ := strings.Cut(line, " ")
		verb = strings.ToUpper(verb)
		if quit := sess.dispatch(verb, arg); quit {
			return
		}
	}
}

// armWrite bounds control-channel writes so a client that stops reading
// cannot pin the session goroutine.
func (sess *session) armWrite() {
	if idle := sess.srv.cfg.IdleTimeout; idle > 0 {
		sess.conn.SetWriteDeadline(time.Now().Add(idle))
	}
}

func (sess *session) reply(code int, text string) {
	sess.armWrite()
	fmt.Fprintf(sess.w, "%d %s\r\n", code, text)
	sess.w.Flush()
}

func (sess *session) replyLines(code int, lines []string, last string) {
	sess.armWrite()
	for _, l := range lines {
		fmt.Fprintf(sess.w, "%d-%s\r\n", code, l)
	}
	fmt.Fprintf(sess.w, "%d %s\r\n", code, last)
	sess.w.Flush()
}

// dispatch executes one command; it returns true when the session ends.
func (sess *session) dispatch(verb, arg string) bool {
	sess.srv.met.command(verb)
	// Commands allowed before authentication.
	switch verb {
	case "USER":
		sess.user = arg
		sess.reply(331, "password required")
		return false
	case "PASS":
		if sess.srv.cfg.Auth == nil || sess.srv.cfg.Auth(sess.user, arg) {
			sess.authed = true
			sess.reply(230, "user "+sess.user+" logged in")
		} else {
			sess.reply(530, "authentication failed")
		}
		return false
	case "QUIT":
		sess.reply(221, "goodbye")
		return true
	case "NOOP":
		sess.reply(200, "ok")
		return false
	case "SYST":
		sess.reply(215, "UNIX Type: L8")
		return false
	case "FEAT":
		sess.replyLines(211, []string{
			"Extensions supported:",
			" PARALLEL", " SPAS", " SBUF", " SIZE", " MODE E", " ERET", " REST", " CKSM",
		}, "end")
		return false
	}
	if !sess.authed {
		sess.reply(530, "please login with USER and PASS")
		return false
	}
	switch verb {
	case "TYPE":
		if strings.EqualFold(arg, "I") {
			sess.binary = true
			sess.reply(200, "type set to I")
		} else {
			sess.reply(504, "only TYPE I supported")
		}
	case "MODE":
		switch strings.ToUpper(arg) {
		case "E":
			sess.modeE = true
			sess.reply(200, "mode set to E")
		case "S":
			sess.modeE = false
			sess.reply(200, "mode set to S")
		default:
			sess.reply(504, "unknown mode")
		}
	case "SBUF":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			sess.reply(501, "bad buffer size")
			break
		}
		sess.bufferBytes = n
		sess.reply(200, "buffer size set")
	case "OPTS":
		sess.cmdOpts(arg)
	case "PASV":
		sess.cmdPassive(false)
	case "SPAS":
		sess.cmdPassive(true)
	case "PORT":
		sess.cmdPort(arg)
	case "SIZE":
		n, err := sess.srv.cfg.Store.Size(arg)
		if err != nil {
			sess.reply(550, err.Error())
			break
		}
		sess.reply(213, strconv.FormatInt(n, 10))
	case "CKSM":
		sess.cmdCksm(arg)
	case "NLST":
		names, err := sess.srv.cfg.Store.List(arg)
		if err != nil {
			sess.reply(550, err.Error())
			break
		}
		lines := make([]string, 0, len(names)+1)
		lines = append(lines, "listing")
		for _, n := range names {
			lines = append(lines, " "+n)
		}
		sess.replyLines(250, lines, fmt.Sprintf("%d objects", len(names)))
	case "REST":
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			sess.reply(501, "bad restart offset")
			break
		}
		sess.restartOffset = n
		sess.srv.met.hub.Event(sess.trace.TraceID, "rest", "offset="+arg)
		sess.reply(350, "restarting at "+arg+"; send RETR or STOR")
	case "RETR":
		offset := sess.restartOffset
		sess.restartOffset = 0
		sess.cmdRetr(arg, offset, -1)
	case "ERET":
		sess.cmdEret(arg)
	case "STOR":
		offset := sess.restartOffset
		sess.restartOffset = 0
		sess.cmdStor(arg, offset)
	case "SITE":
		sess.cmdSite(arg)
	default:
		sess.reply(502, "command not implemented: "+verb)
	}
	return false
}

// cmdSite handles SITE extensions. SITE TRID <token> binds an
// end-to-end trace context to the session, so subsequent transfer
// spans and flight-recorder events on this server link back to the
// sending process's span. Unknown subcommands get a 500 — the reply
// family clients treat as "old server, degrade silently" — which is
// also what pre-TRID builds of this server said to SITE itself (502).
func (sess *session) cmdSite(arg string) {
	sub, rest, _ := strings.Cut(arg, " ")
	switch strings.ToUpper(sub) {
	case "TRID":
		tc, err := telemetry.ParseTraceToken(strings.TrimSpace(rest))
		if err != nil {
			sess.reply(501, "bad trace token")
			return
		}
		sess.trace = tc
		sess.srv.met.hub.Event(tc.TraceID, "trid_bound", "parent="+tc.ParentSID)
		sess.reply(200, "trace "+tc.TraceID+" bound")
	case "RATE":
		bps, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil || bps < 0 {
			sess.reply(501, "bad rate")
			return
		}
		sess.rateBps = bps
		sess.applyRate()
		if eff := sess.effectiveRate(); eff > 0 {
			sess.reply(200, fmt.Sprintf("session shaped to %d bps", eff))
		} else {
			sess.reply(200, "session rate shaping cleared")
		}
	default:
		sess.reply(500, "SITE "+sub+" not understood")
	}
}

// cmdOpts handles "OPTS RETR Parallelism=n;" (the Globus client syntax).
func (sess *session) cmdOpts(arg string) {
	verb, rest, _ := strings.Cut(arg, " ")
	if !strings.EqualFold(verb, "RETR") {
		sess.reply(501, "only OPTS RETR supported")
		return
	}
	for _, opt := range strings.Split(rest, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
		if !ok || k == "" {
			continue
		}
		if strings.EqualFold(k, "Parallelism") {
			n, err := strconv.Atoi(strings.Split(v, ",")[0])
			if err != nil || n < 1 || n > 64 {
				sess.reply(501, "bad parallelism")
				return
			}
			sess.parallelism = n
		}
	}
	sess.reply(200, "options accepted")
}

// cmdPassive opens the next transfer's data listeners and reports their
// addresses: PASV one, in the classic 227 host-port encoding; SPAS one
// per stripe, always in the 229 multi-line form. The listeners bind the
// control connection's local IPv4 address (loopback for an in-memory
// control connection), since the h1,h2,h3,h4 encoding has no other
// form; a control connection without one gets a 425 and no listener.
func (sess *session) cmdPassive(striped bool) {
	sess.endTransfer()
	host := "127.0.0.1"
	if ta, ok := sess.conn.LocalAddr().(*net.TCPAddr); ok {
		ip4 := ta.IP.To4()
		if ip4 == nil {
			sess.reply(425, "passive mode needs an IPv4 control connection")
			return
		}
		host = ip4.String()
	}
	n := 1
	if striped {
		n = sess.srv.cfg.Stripes
	}
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := sess.srv.cfg.DataListen("tcp", net.JoinHostPort(host, "0"))
		if err != nil {
			sess.closePassive()
			sess.reply(425, "cannot open data listener")
			return
		}
		sess.passive = append(sess.passive, ln)
		sess.srv.met.listenersOpen.Inc()
		hp := hostPortString(ln.Addr())
		if hp == "" {
			sess.closePassive()
			sess.reply(425, "data listener has no IPv4 address")
			return
		}
		addrs = append(addrs, hp)
	}
	sess.striped = striped
	if !striped {
		sess.reply(227, "entering passive mode ("+addrs[0]+")")
		return
	}
	lines := []string{"Entering striped passive mode"}
	for _, a := range addrs {
		lines = append(lines, " "+a)
	}
	sess.replyLines(229, lines, "end")
}

// cmdPort records an active-mode target in h1,h2,h3,h4,p1,p2 form; the
// server will dial it for the next transfer (the third-party-transfer
// leg).
func (sess *session) cmdPort(arg string) {
	addr, err := parseHostPort(arg)
	if err != nil {
		sess.reply(501, err.Error())
		return
	}
	sess.endTransfer()
	sess.activeAddr = addr
	sess.reply(200, "PORT command successful")
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

// dataChan is one data connection: the raw socket, the frame buffers
// read and sent through it, and one transfer's instrumented view of it
// (conn, which fr reads through). A transfer that moved over exactly
// one dataChan and replies 226 keeps it as the session's cached
// channel (see settle).
type dataChan struct {
	raw    net.Conn
	stripe string
	conn   net.Conn
	fr     frameReader // bytes read past an EOD stay for the next transfer
	send   []byte      // sendStoreRegion's frame buffer
	cached bool        // counted in the cached-channels gauge
}

// close drops the channel and its share of the cached-channels gauge.
func (dc *dataChan) close(met *srvMetrics) {
	if dc == nil {
		return
	}
	dc.raw.Close()
	if dc.cached {
		met.cachedChans.Dec()
	}
}

// dataConns provides the data connections for a transfer: the cached
// channel when the session holds one, else by accepting on the passive
// listeners (parallelism conns on PASV's single listener, or one per
// SPAS stripe listener) or by dialing the PORT target. Every connection
// is instrumented afresh (see instrumentedConn) to count wire bytes
// into the transfer context, the span, and the per-stripe live byte
// counters.
func (sess *session) dataConns(tx *transferCtx) ([]*dataChan, error) {
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
		dc.conn = wrapDataConn(context.Background(), instrumentedConn{
			Conn:   dc.raw,
			idle:   sess.srv.cfg.DataTimeout,
			wire:   &tx.wire,
			live:   met.hub.LiveCounter(dc.stripe),
			span:   tx.span,
			shaped: shaped,
		}, lim)
		dc.fr.r = dc.conn
		return dc
	}
	if dc := sess.cached; dc != nil {
		sess.cached = nil
		met.chanReuses.Inc()
		return []*dataChan{wrap(dc)}, nil
	}
	open := func(c net.Conn, stripe string) *dataChan {
		met.dataConns.Inc()
		return wrap(&dataChan{raw: c, stripe: stripe})
	}
	if sess.activeAddr != "" {
		c, err := net.DialTimeout("tcp", sess.activeAddr, sess.srv.cfg.AcceptTimeout)
		if err != nil {
			met.acceptErrors.Inc()
			return nil, err
		}
		return []*dataChan{open(c, "active")}, nil
	}
	// Passive: PASV's one listener takes parallelism connections, SPAS
	// one per stripe listener.
	if len(sess.passive) == 0 {
		return nil, errors.New("no PASV/SPAS/PORT before transfer")
	}
	stripes := len(sess.passive)
	want := sess.parallelism
	if sess.striped {
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

// stripes is the number of SPAS stripe endpoints armed for the next
// transfer; PASV, PORT and no endpoint at all count as one.
func (sess *session) stripes() int {
	return max(len(sess.passive), 1)
}

func (sess *session) closePassive() {
	for _, ln := range sess.passive {
		ln.Close()
	}
	sess.srv.met.listenersOpen.Add(-int64(len(sess.passive)))
	sess.passive, sess.striped = nil, false
}

// endTransfer releases a transfer's data targets: every passive
// listener is closed — win or lose, so a session looping transfers does
// not accumulate open sockets — the PORT target is cleared, and a
// cached channel is closed. All are valid for exactly one transfer
// attempt; only settle keeps a channel past one.
func (sess *session) endTransfer() {
	sess.closePassive()
	sess.activeAddr = ""
	sess.cached.close(sess.srv.met)
	sess.cached = nil
}

// beginTransfer opens one transfer attempt's instrumentation: the
// phase span (data_setup -> stream -> teardown) and the wire-byte
// tally the failure path reports as the partial count. With telemetry
// off the span is nil and every operation on it is a no-op.
func (sess *session) beginTransfer(op string, typ usagestats.TransferType, target string) *transferCtx {
	tx := &transferCtx{
		op:    op,
		typ:   typ,
		start: time.Now(),
		span:  sess.srv.met.hub.Span(op, target, telemetry.PhaseSetup),
	}
	if sess.trace.TraceID != "" {
		tx.span.SetTrace(sess.trace.TraceID, sess.trace.ParentSID)
	}
	return tx
}

// direction is what differs between RETR and STOR inside the one
// transfer skeleton; a transfer's open step returns it.
type direction struct {
	// pump moves data connection i of n's share of the object; it runs
	// on its own goroutine and the skeleton closes or keeps dc after.
	pump func(i, n int, dc *dataChan) error
	// abort, when set, is told the first pump error so sibling pumps
	// parked on shared state wake.
	abort func(error)
	// done receives the data phase's outcome, releases what open
	// acquired — the pinned source, or the put, sealed on 226 and
	// aborted otherwise — and returns the transfer's final outcome.
	done func(code int, msg string) (int, string)
}

// transfer is the skeleton every RETR, ERET and STOR runs: preconditions
// -> open the source or sink -> 150 -> data connections -> one pump per
// connection -> wait -> settle. open reports a nonzero code to reject
// the transfer before any data connection is made; it must have
// released whatever it acquired by then.
func (sess *session) transfer(tx *transferCtx, open func() (direction, int, string)) {
	code, msg := 504, "set TYPE I and MODE E first"
	if sess.binary && sess.modeE {
		var d direction
		if d, code, msg = open(); code == 0 {
			code, msg = d.done(sess.moveData(tx, d))
		}
	}
	sess.settle(tx, code, msg)
}

// moveData is the data phase: it announces the transfer, establishes
// the data connections, runs one pump per connection, and reports 226,
// 425 (no data connection) or 426 (a pump failed).
func (sess *session) moveData(tx *transferCtx, d direction) (int, string) {
	sess.reply(150, "opening data connection")
	chans, err := sess.dataConns(tx)
	if err != nil {
		return 425, "data connection failed: " + err.Error()
	}
	tx.conns = len(chans)
	tx.span.SetStreams(len(chans))
	tx.span.Phase(telemetry.PhaseStream)
	var wg sync.WaitGroup
	errs := make([]error, len(chans))
	for i, dc := range chans {
		wg.Add(1)
		go func(i int, dc *dataChan) {
			defer wg.Done()
			if errs[i] = d.pump(i, len(chans), dc); errs[i] != nil && d.abort != nil {
				d.abort(errs[i])
			}
			if errs[i] != nil || len(chans) > 1 {
				dc.close(sess.srv.met)
			}
		}(i, dc)
	}
	wg.Wait()
	tx.span.Phase(telemetry.PhaseTeardown)
	for _, e := range errs {
		if e != nil {
			return 426, "transfer aborted: " + e.Error()
		}
	}
	if len(chans) == 1 {
		tx.keep = chans[0] // at a clean EOD; settle keeps it on a 226
	}
	return 226, "transfer complete"
}

// settle ends a transfer attempt, and is the only code that writes a
// completion reply. The reply goes last: by the time a client can act
// on it the usage record exists, the metrics are published, the span is
// in the hub's ended ring, and the data listeners are closed (the
// source snapshot and the put were released by the direction's done
// step), and the transfer's one data channel is cached on a 226, said
// so in the reply, or closed. Unlike success-only Globus loggers a
// failure still emits a usage record — carrying the error code and the
// partial wire-byte count — so live failure rates are observable.
func (sess *session) settle(tx *transferCtx, code int, msg string) {
	met := sess.srv.met
	wire := tx.wire.Load()
	size, logCode := tx.size, 0
	var err error
	if code >= 400 {
		met.hub.Event(sess.trace.TraceID, "reply_error", fmt.Sprintf("%s: %d %s", tx.op, code, msg))
		size, logCode, err = wire, code, fmt.Errorf("%d %s", code, msg)
	}
	// The usage record derives stripes from the listeners, so it is cut
	// before endTransfer closes them.
	sess.logTransfer(tx, size, logCode)
	met.transferDone(tx.op, code, wire, time.Since(tx.start).Seconds())
	met.deliveredBytes(tx.op, tx.delivered)
	tx.span.End(err)
	sess.endTransfer()
	if dc := tx.keep; dc != nil && code == 226 {
		if !dc.cached {
			dc.cached = true
			met.cachedChans.Inc()
		}
		sess.cached, msg = dc, msg+"; "+channelCached
	} else {
		dc.close(met)
	}
	sess.reply(code, msg)
}

// openSource pins the named object for reading: one immutable version
// for the caller's whole read when the store offers snapshots — so a
// concurrent Put can't interleave versions the way per-block store
// lookups would — else per-read lookups against a version-stable
// store. release must be called once the reads are done; disk-backed
// snapshots are open file handles.
func (s *Server) openSource(name string) (src io.ReaderAt, size int64, release func(), err error) {
	release = func() {}
	if s.snaps == nil {
		size, err = s.cfg.Store.Size(name)
		return storeReaderAt{s: s.reads, name: name}, size, release, err
	}
	src, size, err = s.snaps.SnapshotObject(name)
	if closer, ok := src.(io.Closer); ok && err == nil {
		release = func() { closer.Close() }
	}
	return src, size, release, err
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

// cmdCksm handles the GridFTP checksum command: "CKSM CRC32 <offset>
// <length> <name>" (length -1 means to EOF), the integrity-verification
// hook transfer managers call after a third-party transfer. It reads
// the same pinned source RETR does, one block at a time, so checksumming
// costs a block of memory whatever the object's size.
func (sess *session) cmdCksm(arg string) {
	fields := strings.Fields(arg)
	if len(fields) != 4 || !strings.EqualFold(fields[0], "CRC32") {
		sess.reply(504, "syntax: CKSM CRC32 <offset> <length> <name>")
		return
	}
	offset, err1 := strconv.ParseInt(fields[1], 10, 64)
	length, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil || offset < 0 || length < -1 {
		sess.reply(501, "bad checksum region")
		return
	}
	src, size, release, err := sess.srv.openSource(fields[3])
	if err != nil {
		sess.reply(550, err.Error())
		return
	}
	defer release()
	if offset > size {
		sess.reply(551, "offset beyond object size")
		return
	}
	end := size
	if length >= 0 && offset+length < end {
		end = offset + length
	}
	sum := crc32.NewIEEE()
	region := io.NewSectionReader(src, offset, end-offset)
	if _, err := io.CopyBuffer(sum, region, make([]byte, sess.srv.cfg.BlockSize)); err != nil {
		sess.reply(550, err.Error())
		return
	}
	sess.reply(213, fmt.Sprintf("%08x", sum.Sum32()))
}

// cmdEret handles GridFTP partial retrieval: "ERET P <offset> <length>
// <name>" streams only the requested byte region, framed with absolute
// file offsets.
func (sess *session) cmdEret(arg string) {
	fields := strings.Fields(arg)
	if len(fields) != 4 || !strings.EqualFold(fields[0], "P") {
		sess.endTransfer()
		sess.reply(501, "syntax: ERET P <offset> <length> <name>")
		return
	}
	offset, err1 := strconv.ParseInt(fields[1], 10, 64)
	length, err2 := strconv.ParseInt(fields[2], 10, 64)
	if err1 != nil || err2 != nil || offset < 0 || length <= 0 {
		sess.endTransfer()
		sess.reply(501, "bad partial region")
		return
	}
	sess.cmdRetr(fields[3], offset, length)
}

// cmdRetr streams an object region to the client across the data
// connections, interleaving MODE E blocks round-robin (stripe i of n
// sends blocks i, i+n, i+2n, ...) read straight from the pinned source —
// per-connection memory is one block, not the object. offset > 0
// serves a restarted or partial transfer; length < 0 means to the end
// of the object.
func (sess *session) cmdRetr(name string, offset, length int64) {
	op := "retr"
	if length >= 0 {
		op = "eret"
	}
	tx := sess.beginTransfer(op, usagestats.Retrieve, name)
	sess.transfer(tx, func() (direction, int, string) {
		src, size, release, err := sess.srv.openSource(name)
		if err != nil {
			return direction{}, 550, err.Error()
		}
		if offset > size {
			release()
			return direction{}, 551, "offset beyond object size"
		}
		regionLen := size - offset
		if length >= 0 && length < regionLen {
			regionLen = length
		}
		bs := sess.srv.cfg.BlockSize
		return direction{
			pump: func(i, n int, dc *dataChan) (err error) {
				dc.send, err = sendStoreRegion(src, dc.conn, dc.send, offset, regionLen, bs, i*bs, n*bs)
				return err
			},
			done: func(code int, msg string) (int, string) {
				release()
				if code == 226 {
					tx.size, tx.delivered = regionLen, regionLen
				}
				return code, msg
			},
		}, 0, ""
	})
}

// sendStoreRegion streams the object region [offset, offset+length) as
// MODE E blocks read directly from the store, in stripe geometry:
// region-relative offsets base, base+step, base+2*step, ... each
// carrying up to blockSize bytes framed at absolute file offsets (a
// stripe with base=i*blockSize, step=n*blockSize sends every n-th
// block). Frames are built in place in one buffer sized by the first
// (largest) block, framesPerWrite to a Write, the last with the EOD.
// The buffer is buf when that is large enough; the one used is
// returned, for a cached channel to keep.
func sendStoreRegion(s io.ReaderAt, w io.Writer, buf []byte, offset, length int64, blockSize, base, step int) ([]byte, error) {
	if blockSize <= 0 {
		return buf, fmt.Errorf("%w: non-positive block size", ErrDataProtocol)
	}
	if base < 0 || step <= 0 {
		return buf, fmt.Errorf("%w: bad stripe geometry base=%d step=%d", ErrDataProtocol, base, step)
	}
	rem := max(length-int64(base), 0)
	batch := max(1, min(int64(framesPerWrite(blockSize)), (rem+int64(step)-1)/int64(step)))
	if need := int(hdrAt + batch*(modeEHeaderLen+min(int64(blockSize), rem)) + modeEHeaderLen); len(buf) < need {
		buf = make([]byte, need)
	}
	end := hdrAt
	for off, k := int64(base), int64(1); off < length; off, k = off+int64(step), k+1 {
		n := min(int64(blockSize), length-off)
		m, err := s.ReadAt(buf[end+modeEHeaderLen:end+modeEHeaderLen+int(n)], offset+off)
		if int64(m) < n {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, fmt.Errorf("gridftp: short store read at %d: %w", offset+off, err)
		}
		putHeader(buf[end:], 0, int(n), uint64(offset+off))
		end += modeEHeaderLen + int(n)
		if k%batch == 0 && off+int64(step) < length {
			if _, err := w.Write(buf[hdrAt:end]); err != nil {
				return buf, err
			}
			end = hdrAt
		}
	}
	putHeader(buf[end:], DescEOD, 0, 0)
	_, err := w.Write(buf[hdrAt : end+modeEHeaderLen])
	return buf, err
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

// cmdStor receives an object through a bounded reassembly window:
// blocks from all data connections place into one shared window, every
// contiguous run flushes to the store immediately, and a connection
// racing too far ahead parks until the window slides. Peak memory is
// at most the window (made only once a block parks), independent of
// object size — and because BeginPut pins the stored object to the
// delivered watermark, a failed transfer leaves a partial whose Size is
// exactly the restart offset a resume-aware client probes for.
// offset > 0 (REST) resumes such a partial: delivery starts at that
// watermark, dropping any overlap the sender re-transmits.
func (sess *session) cmdStor(name string, offset int64) {
	tx := sess.beginTransfer("stor", usagestats.Store, name)
	sess.transfer(tx, func() (direction, int, string) {
		srv := sess.srv
		unclaim, ok := srv.claimPut(name)
		if !ok {
			return direction{}, 450, "object busy: another STOR of it is in flight"
		}
		if err := srv.puts.BeginPut(name, offset); err != nil {
			unclaim()
			return direction{}, 554, "restart rejected: " + err.Error()
		}
		// Once BeginPut engaged, every path ends the claim and every
		// failure path releases the store's per-put resources (DirStore's
		// open partial handle). The flushed watermark itself survives the
		// abort — it is the restart offset a resume probes via SIZE.
		endPut := func(sealed bool) {
			if !sealed && srv.aborts != nil {
				_ = srv.aborts.AbortPut(name)
			}
			unclaim()
		}
		sink := &regionSink{sp: srv.puts, name: name, off: offset}
		asm, err := NewWindowAssembler(sink, uint64(offset), -1, srv.cfg.WindowSize, srv.cfg.DataTimeout)
		if err != nil {
			endPut(false)
			return direction{}, 451, err.Error()
		}
		if hub := srv.met.hub; hub != nil {
			trace := sess.trace.TraceID
			asm.OnPark = func(off uint64) {
				hub.Event(trace, "block_parked", fmt.Sprintf("%s offset=%d", name, off))
			}
		}
		maxSize := uint64(srv.cfg.MaxObjectSize)
		return direction{
			pump: func(_, n int, dc *dataChan) error {
				_, err := asm.drain(&dc.fr, n, maxSize)
				return err
			},
			// Wake siblings parked on the window; first error wins.
			abort: asm.Abort,
			done: func(code int, msg string) (int, string) {
				tx.delivered = asm.Delivered()
				if asm.DuplicateBytes() > 0 {
					tx.wireRec = asm.WireBytes()
				}
				if code == 226 {
					tx.size = int64(asm.Flushed())
					if err := asm.Finish(); err != nil {
						code, msg = 426, "transfer aborted: "+err.Error()
					} else if err := srv.puts.FinishPut(name, tx.size); err != nil {
						code, msg = 552, "store failed: "+err.Error()
					}
				}
				endPut(code == 226)
				return code, msg
			},
		}, 0, ""
	})
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
	stripes := sess.stripes()
	streams := tx.conns
	if stripes > 1 || streams < 1 {
		streams = 1
	}
	remote, _, _ := net.SplitHostPort(sess.conn.RemoteAddr().String())
	rec := usagestats.Record{
		Type:        tx.typ,
		SizeBytes:   size,
		Start:       start.UTC(),
		DurationSec: time.Since(start).Seconds(),
		ServerHost:  sess.srv.cfg.ServerHost,
		RemoteHost:  remote,
		Streams:     streams,
		Stripes:     stripes,
		BufferBytes: sess.bufferBytes,
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
