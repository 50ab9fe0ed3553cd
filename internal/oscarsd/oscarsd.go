// Package oscarsd implements the wall-clock OSCARS reservation daemon: a
// TCP server speaking newline-delimited JSON over an oscars.Ledger. The
// simulation-bound IDC (internal/oscars) handles circuit lifecycle inside
// experiments; this daemon exposes the same admission-control core as a
// network service, the way the real OSCARS IDC exposes createReservation.
package oscarsd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gftpvc/internal/oscars"
	"gftpvc/internal/simclock"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/topo"
)

// Protocol operations. Clients put one of these in Request.Op; the
// dispatch switch is bounded by this set and replies to anything else
// with a CodeUnknownOp structured error. The internal/vc client shares
// these constants, so server and client cannot drift apart on spelling.
const (
	OpReserve   = "reserve"
	OpModify    = "modify"
	OpCancel    = "cancel"
	OpAvailable = "available"
	OpTopology  = "topology"
	// OpHello is the handshake a client sends when it connects, and the
	// cheap clock read after it: the reply carries only the service
	// clock (Response.Now).
	OpHello = "hello"
)

// Machine-readable error codes carried in Response.Code. Every failure
// reply carries one of these beside its human-readable Error line; the
// internal/vc client classifies a failure by its code alone.
const (
	// CodeBadRequest: the request failed validation before touching the
	// ledger (missing rate, inverted window, start in the past).
	CodeBadRequest = "bad-request"
	// CodeNoPath: no path between the endpoints has the requested
	// bandwidth over the requested window — the admission reject the
	// hybrid dispatcher falls back to best-effort IP on.
	CodeNoPath = "no-path"
	// CodeRejected: the ledger refused a modify, because no path fits
	// the new rate and window; the circuit's old booking stands exactly
	// as it was.
	CodeRejected = "rejected"
	// CodeUnknownCircuit: cancel/modify named a circuit this daemon is
	// not holding.
	CodeUnknownCircuit = "unknown-circuit"
	// CodeUnknownOp: Request.Op is not one of the Op constants.
	CodeUnknownOp = "unknown-op"
	// CodeMalformed: the request line was not valid JSON.
	CodeMalformed = "malformed"
)

// ErrUnknownScenario is returned by Start for a Config.Scenario outside
// the reference set; errors.Is-comparable.
var ErrUnknownScenario = errors.New("oscarsd: unknown scenario")

// Config configures the daemon.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Scenario selects the reference topology: nersc-ornl | nersc-anl |
	// ncar-nics | slac-bnl.
	Scenario string
	// ReservableFraction is the share of each link's capacity circuits
	// may book.
	ReservableFraction float64
	// Telemetry, when set, publishes admission-control metrics on the hub
	// (requests by op, admit/reject/cancel counts, open connections).
	Telemetry *telemetry.Hub
}

// Request is one protocol message. Op should be one of the Op
// constants; the remaining fields are per-operation payload.
type Request struct {
	Op      string  `json:"op"`
	Src     string  `json:"src,omitempty"`
	Dst     string  `json:"dst,omitempty"`
	RateBps float64 `json:"rate_bps,omitempty"`
	Start   float64 `json:"start,omitempty"`
	End     float64 `json:"end,omitempty"`
	ID      int64   `json:"id,omitempty"`
	// Trace is the end-to-end trace ID of the transfer this request
	// serves, if any; the daemon tags its flight-recorder events with
	// it.
	Trace string `json:"trace,omitempty"`
}

// Response is the reply to a Request.
type Response struct {
	OK    bool     `json:"ok"`
	Error string   `json:"error,omitempty"`
	ID    int64    `json:"id,omitempty"`
	Path  []string `json:"path,omitempty"`
	Src   string   `json:"src,omitempty"`
	Dst   string   `json:"dst,omitempty"`
	Nodes []string `json:"nodes,omitempty"`
	Now   float64  `json:"now,omitempty"`
	// Code is the machine-readable error class (Code* constants), set
	// alongside Error on every failure.
	Code string `json:"code,omitempty"`
}

// fail builds an error response carrying both the human-readable line
// and the structured code.
func fail(code, msg string) Response {
	return Response{Error: msg, Code: code}
}

// Server is a running daemon.
type Server struct {
	ln     net.Listener
	ledger *oscars.Ledger
	epoch  time.Time

	mu     sync.Mutex
	nextID oscars.CircuitID
	held   map[oscars.CircuitID]circuit

	wg     sync.WaitGroup
	conns  map[net.Conn]bool
	closed bool

	hub *telemetry.Hub
	met odMetrics
}

// odMetrics is the daemon's instrument set; nil instruments (no hub)
// make every call a no-op.
type odMetrics struct {
	admitted    *telemetry.Counter
	rejected    *telemetry.Counter
	cancelled   *telemetry.Counter
	connsActive *telemetry.Gauge
}

// countOp counts one dispatched protocol request by operation. The op
// label is bounded by the dispatch switch: unknown input lands on
// "other".
func (s *Server) countOp(op string) {
	if s.hub == nil {
		return
	}
	switch op {
	case OpReserve, OpCancel, OpModify, OpAvailable, OpTopology, OpHello:
	default:
		op = "other"
	}
	s.hub.Counter("oscarsd_requests_total",
		"Protocol requests dispatched, by operation.",
		telemetry.L("op", op)).Inc()
}

// countModify counts one modify outcome.
func (s *Server) countModify(ok bool) {
	if s.hub == nil {
		return
	}
	result := "ok"
	if !ok {
		result = "error"
	}
	s.hub.Counter("oscarsd_modify_total",
		"Reservation modifications, by result.",
		telemetry.L("result", result)).Inc()
}

// circuit is a held circuit: the ends a modify re-paths between, and
// the end of its booking on the daemon's clock.
type circuit struct {
	src, dst topo.NodeID
	end      simclock.Time
}

// heldGrace is how long a circuit stays held after its booking ends,
// longer than a session gap (gftpxfer's -gap defaults to 60 s), so the
// broker can still extend a circuit that lapsed just before its next
// job, or cancel it when its session closes. Past the grace the daemon
// forgets it, so held is bounded by the circuits live within the
// grace, not by every circuit never cancelled.
const heldGrace = 5 * time.Minute

// lapsed reports whether c ended more than heldGrace before now.
func (c circuit) lapsed(now simclock.Time) bool {
	return float64(now-c.end) > heldGrace.Seconds()
}

// scenarioTopo resolves a scenario name.
func scenarioTopo(name string) (*topo.Scenario, error) {
	switch name {
	case "nersc-ornl":
		return topo.NERSCORNL(), nil
	case "nersc-anl":
		return topo.NERSCANL(), nil
	case "ncar-nics":
		return topo.NCARNICS(), nil
	case "slac-bnl":
		return topo.SLACBNL(), nil
	default:
		return nil, fmt.Errorf("%w %q", ErrUnknownScenario, name)
	}
}

// Start launches the daemon.
func Start(cfg Config) (*Server, error) {
	s, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	if s.ln, err = net.Listen("tcp", cfg.Addr); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// newServer builds a daemon that is not yet listening.
func newServer(cfg Config) (*Server, error) {
	sc, err := scenarioTopo(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	ledger, err := oscars.NewLedger(sc.Topo, cfg.ReservableFraction)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ledger: ledger,
		epoch:  time.Now(),
		held:   make(map[oscars.CircuitID]circuit),
		conns:  make(map[net.Conn]bool),
		hub:    cfg.Telemetry,
	}
	if s.hub != nil {
		s.met = odMetrics{
			admitted: s.hub.Counter("oscarsd_reservations_admitted_total",
				"Reservations admitted by the bandwidth ledger."),
			rejected: s.hub.Counter("oscarsd_reservations_rejected_total",
				"Reservations refused (no path with the requested bandwidth)."),
			cancelled: s.hub.Counter("oscarsd_reservations_cancelled_total",
				"Held reservations cancelled by clients."),
			connsActive: s.hub.Gauge("oscarsd_connections_active",
				"Protocol connections currently open."),
		}
	}
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Wait blocks until the server is closed.
func (s *Server) Wait() { s.wg.Wait() }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.met.connsActive.Inc()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.met.connsActive.Dec()
		}()
	}
}

// now returns seconds since the daemon's epoch.
func (s *Server) now() simclock.Time {
	return simclock.Time(time.Since(s.epoch).Seconds())
}

func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 4096), 1<<16)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		if err := enc.Encode(s.handleLine(sc.Bytes())); err != nil {
			return
		}
	}
}

// handleLine answers one request line.
func (s *Server) handleLine(line []byte) Response {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return fail(CodeMalformed, "malformed request: "+err.Error())
	}
	return s.dispatch(req)
}

func (s *Server) dispatch(req Request) Response {
	s.countOp(req.Op)
	resp := s.dispatchOp(req)
	// Reservation-state changes land in the flight recorder, tagged with
	// the transfer trace when the caller supplied one.
	switch req.Op {
	case OpReserve, OpCancel, OpModify:
		detail := fmt.Sprintf("%s ok id=%d", req.Op, resp.ID)
		if !resp.OK {
			detail = fmt.Sprintf("%s %s: %s", req.Op, resp.Code, resp.Error)
		}
		s.hub.Event(req.Trace, req.Op, detail)
	}
	return resp
}

func (s *Server) dispatchOp(req Request) Response {
	switch req.Op {
	case OpReserve:
		return s.reserve(req)
	case OpCancel:
		return s.cancel(req)
	case OpModify:
		return s.modify(req)
	case OpAvailable:
		return s.available(req)
	case OpTopology:
		nodes := s.ledger.Topology().Nodes()
		names := make([]string, len(nodes))
		for i, n := range nodes {
			names[i] = string(n)
		}
		return Response{OK: true, Nodes: names, Now: float64(s.now())}
	case OpHello:
		return Response{OK: true, Now: float64(s.now())}
	default:
		return fail(CodeUnknownOp, fmt.Sprintf("unknown op %q", req.Op))
	}
}

func pathNames(p topo.Path) []string {
	out := make([]string, len(p))
	for i, l := range p {
		out[i] = string(l.ID)
	}
	return out
}

// checkWindow validates a reserve or available request before it
// touches the ledger.
func (s *Server) checkWindow(req Request) error {
	switch {
	case req.RateBps <= 0:
		return errors.New("rate_bps must be positive")
	case req.End <= req.Start:
		return errors.New("end must follow start")
	case float64(s.now()) > req.Start:
		return errors.New("start is in the past")
	}
	return nil
}

// reserve books a new circuit through Ledger.Book, which finds its path
// and books it in one critical section of the ledger.
func (s *Server) reserve(req Request) Response {
	if err := s.checkWindow(req); err != nil {
		s.met.rejected.Inc()
		return fail(CodeBadRequest, err.Error())
	}
	c := circuit{topo.NodeID(req.Src), topo.NodeID(req.Dst), simclock.Time(req.End)}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.ledger.Prune(now)
	for id, h := range s.held {
		if h.lapsed(now) {
			delete(s.held, id)
		}
	}
	path, err := s.ledger.Book(s.nextID+1, c.src, c.dst,
		req.RateBps, simclock.Time(req.Start), c.end)
	if err != nil {
		s.met.rejected.Inc()
		return fail(CodeNoPath, err.Error())
	}
	s.nextID++
	s.held[s.nextID] = c
	s.met.admitted.Inc()
	return Response{OK: true, ID: int64(s.nextID), Path: pathNames(path), Src: req.Src, Dst: req.Dst}
}

func (s *Server) cancel(req Request) Response {
	id := oscars.CircuitID(req.ID)
	s.mu.Lock()
	c, known := s.held[id]
	delete(s.held, id)
	s.mu.Unlock()
	if !known || c.lapsed(s.now()) {
		return fail(CodeUnknownCircuit, fmt.Sprintf("unknown circuit %d", req.ID))
	}
	s.ledger.Release(id)
	s.met.cancelled.Inc()
	return Response{OK: true, ID: req.ID}
}

// modify re-books a held reservation with a new rate and/or window (the
// OSCARS modifyReservation operation) through Ledger.Book: a refused
// modify leaves the old booking standing. The daemon's lock is held
// throughout so that a cancel cannot release the circuit between the
// lookup and the re-book.
//
// A circuit whose booking has ended is still held for heldGrace: the
// broker extends a circuit that lapsed a moment before its next job, and
// cancels one after it ends, so a modify of it re-books it and a cancel
// answers ok. Only its expired bookings are pruned, as every reserve and
// modify prunes the ledger to the daemon's now. Past the grace both
// answer CodeUnknownCircuit.
func (s *Server) modify(req Request) Response {
	id := oscars.CircuitID(req.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	c, known := s.held[id]
	if !known || c.lapsed(now) {
		return fail(CodeUnknownCircuit, fmt.Sprintf("unknown circuit %d", req.ID))
	}
	if req.RateBps <= 0 || req.End <= req.Start {
		return fail(CodeBadRequest, "modify needs rate_bps and a valid window")
	}
	s.ledger.Prune(now)
	path, err := s.ledger.Book(id, c.src, c.dst,
		req.RateBps, simclock.Time(req.Start), simclock.Time(req.End))
	s.countModify(err == nil)
	if err != nil {
		return fail(CodeRejected, "modify rejected: "+err.Error())
	}
	c.end = simclock.Time(req.End)
	s.held[id] = c
	return Response{OK: true, ID: req.ID, Path: pathNames(path)}
}

func (s *Server) available(req Request) Response {
	if err := s.checkWindow(req); err != nil {
		return fail(CodeBadRequest, err.Error())
	}
	path, err := s.ledger.PathWithBandwidth(topo.NodeID(req.Src), topo.NodeID(req.Dst),
		req.RateBps, simclock.Time(req.Start), simclock.Time(req.End))
	if err != nil {
		return fail(CodeNoPath, err.Error())
	}
	return Response{OK: true, Path: pathNames(path)}
}
