package gridftp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"
)

// This file runs the client's protocol machine in lockstep with the
// server's, with no sockets: each model Client's control connection is a
// ctlWire that hands every command line to its server's sessionState and
// serves the replies it decides, one line per Read, so the Client's own
// control code (send, answer, drain, dataChans, transfer, ThirdPartyFrom,
// SetParallelism) runs unchanged. Only the data phase is modelled: a
// transfer's phase function, or, for a third-party copy, the two
// servers' legs, decide the outcome the way the server's transfer
// skeleton would.

var (
	errModelReset   = errors.New("model: data connection reset")
	errModelTimeout = modelTimeout{}
)

type modelTimeout struct{}

func (modelTimeout) Error() string   { return "model: control read timed out" }
func (modelTimeout) Timeout() bool   { return true }
func (modelTimeout) Temporary() bool { return true }

// wireLine is one reply line a model server wrote and its client has not
// read: verb names the owed entry that must consume it.
type wireLine struct {
	text, verb string
	code       int
}

// leg is a transfer a model server accepted with a 150 and has not
// settled: its data target and, when cached, that channel's identity
// and whether it was reset.
type leg struct {
	verb   string
	target dataTarget
	chanID int
	reset  bool
}

// lockSide is one client of the model, its server session and the
// control wire between them.
type lockSide struct {
	m    *lockModel
	name string
	c    *Client
	st   sessionState
	out  []wireLine
	leg  *leg

	chanID   int  // the session's cached channel, while it holds one
	reset    bool // that channel was reset
	failRead bool // the next read of a REST's or a completion reply times out

	read150, read226 bool // in this step
}

// lockModel is two sides, the faults of the step running, and the step's
// control trace: each command and each reply line read, in order.
type lockModel struct {
	t      testing.TB
	sides  [2]*lockSide
	nextID int
	fault  string
	trace  []string // "A PASV" for a command, "" for a line read
}

func newLockModel(t testing.TB) *lockModel {
	m := &lockModel{t: t}
	m.sides[0], m.sides[1] = m.newSide("A"), m.newSide("B")
	return m
}

// newSide is a logged-in client and session: TYPE I and MODE E set, one
// stream, two stripes.
func (m *lockModel) newSide(name string) *lockSide {
	s := &lockSide{m: m, name: name,
		st: sessionState{stripes: 2, authed: true, binary: true, modeE: true, parallelism: 1}}
	w := &ctlWire{s: s}
	s.c = &Client{clientState: clientState{parallelism: 1}, conn: w, r: bufio.NewReader(w),
		controlTimeout: time.Second, met: newCliMetrics(nil)}
	return s
}

// ctlWire is a model control connection.
type ctlWire struct {
	s  *lockSide
	in []byte
}

func (w *ctlWire) Write(p []byte) (int, error) {
	w.in = append(w.in, p...)
	for {
		line, rest, ok := strings.Cut(string(w.in), "\r\n")
		if !ok {
			return len(p), nil
		}
		w.in = []byte(rest)
		w.s.serve(line)
	}
}

func (w *ctlWire) Read(p []byte) (int, error)       { return w.s.next(p) }
func (w *ctlWire) Close() error                     { return nil }
func (w *ctlWire) LocalAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (w *ctlWire) RemoteAddr() net.Addr             { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }
func (w *ctlWire) SetDeadline(time.Time) error      { return nil }
func (w *ctlWire) SetReadDeadline(time.Time) error  { return nil }
func (w *ctlWire) SetWriteDeadline(time.Time) error { return nil }

// nopConn is a model data connection: it carries nothing.
type nopConn struct{ net.Conn }

func (nopConn) Close() error                    { return nil }
func (nopConn) SetReadDeadline(time.Time) error { return nil }

// reply writes one reply line that the owed entry verb must consume.
func (s *lockSide) reply(code int, text, verb string) {
	s.out = append(s.out, wireLine{text: strconv.Itoa(code) + " " + text, verb: verb, code: code})
}

// serve runs one command through the session's state, as dispatch does.
func (s *lockSide) serve(line string) {
	verb, arg, _ := strings.Cut(line, " ")
	s.m.trace = append(s.m.trace, s.name+" "+verb)
	owed := "command"
	for _, r := range replies {
		if r.verb == verb {
			owed = verb
		}
	}
	e := s.st.apply(verb, arg)
	switch e.kind {
	case effArm:
		s.st.armed(true)
		if !e.target.striped {
			s.reply(227, "entering passive mode (127,0,0,1,4,1)", owed)
			break
		}
		s.out = append(s.out, wireLine{text: "229-Entering striped passive mode", verb: owed},
			wireLine{text: "229- 127,0,0,1,4,1", verb: owed}, wireLine{text: "229- 127,0,0,1,4,2", verb: owed})
		s.reply(229, "end", owed)
	case effTransfer:
		s.transfer(verb, e)
	case effQuery:
		s.reply(213, "7", owed)
	default:
		s.reply(e.code, e.text, owed)
	}
	if s.st.target.kind != cachedTarget {
		s.chanID, s.reset = 0, false
	}
}

// transfer answers a transfer verb: a rejection, or a 150 that leaves a
// leg to settle.
func (s *lockSide) transfer(verb string, e effect) {
	switch {
	case e.code != 0:
		s.reply(e.code, e.text, verb)
		s.st.settled(0)
	case verb == "STOR" && s.m.fault == "reject-dst", verb != "STOR" && strings.HasPrefix(s.m.fault, "reject") && s.m.fault != "reject-dst":
		s.reply(550, "rejected", verb)
		s.st.settled(0)
	default:
		s.leg = &leg{verb: verb, target: e.target, chanID: s.chanID, reset: s.reset}
		if verb == "STOR" {
			s.reply(150, "opening data connection", verb)
		} else {
			s.reply(150, "opening data connection (7 bytes)", verb)
		}
	}
}

// settle ends the session's leg: ok over n kept connections (n > 0
// caches them), or failed.
func (s *lockSide) settle(ok bool, n, id int) {
	done := "RETR-complete"
	if s.leg.verb == "STOR" {
		done = "STOR-complete"
	}
	s.leg = nil
	if !ok {
		s.reply(426, "transfer aborted", done)
		s.st.settled(0)
		return
	}
	text := "transfer complete"
	if n > 0 {
		text += "; " + channelCached
	}
	s.reply(226, text, done)
	s.st.settled(n)
	s.chanID = id
}

// phase is a model data phase of the Client's own transfer: the
// connections are the kept ones or one per address, and the transfer
// succeeds unless a reset is injected, the cached channel was reset, or
// the client and its server disagree on the connections.
func (s *lockSide) phase(_ Reply, _ time.Time, chans []*dataChan, addrs []string) ([]*dataChan, error) {
	t, l := s.m.t, s.leg
	if l == nil {
		t.Fatalf("%s: a data phase with no transfer accepted", s.name)
	}
	n, ok := len(addrs), !strings.HasPrefix(s.m.fault, "reset")
	if chans != nil {
		n = len(chans)
	}
	switch tg := l.target; tg.kind {
	case cachedTarget:
		if chans == nil || n != tg.n || chans[0].stripe != strconv.Itoa(l.chanID) {
			t.Fatalf("%s: the client ran over %d connections %v, its server holds %d cached as #%d", s.name, n, chans != nil, tg.n, l.chanID)
		}
		if chans[0].fr.n != 0 {
			t.Fatalf("%s: the client reused a channel its peek found stale", s.name)
		}
		ok = ok && !l.reset
	case passiveTarget:
		want := s.st.parallelism
		if tg.striped {
			want = tg.n
		}
		if chans != nil || n != want {
			t.Fatalf("%s: the client ran over %d connections (kept: %v), its server accepts %d", s.name, n, chans != nil, want)
		}
	default:
		ok = false
	}
	kept := n
	if l.target.striped {
		kept = 0
	}
	s.m.nextID++
	s.settle(ok, kept, s.m.nextID)
	if !ok || s.m.fault == "sink" {
		return nil, errModelReset
	}
	if chans == nil {
		chans = make([]*dataChan, n)
	}
	for i := range chans {
		chans[i] = &dataChan{raw: nopConn{}, stripe: strconv.Itoa(s.m.nextID)}
	}
	return chans, nil
}

// settleLegs settles the third-party legs in flight: a copy succeeds
// when both servers accepted it and its data can flow, from src's PORT
// to dst's one PASV connection or over the channel both hold cached.
func (m *lockModel) settleLegs() {
	var src, dst *lockSide
	for _, s := range m.sides {
		switch {
		case s.leg == nil:
		case s.leg.verb == "STOR":
			dst = s
		default:
			src = s
		}
	}
	ok := src != nil && dst != nil && !strings.HasPrefix(m.fault, "reset")
	if ok {
		st, dt := src.leg.target, dst.leg.target
		switch {
		case st.kind == portTarget && dt.kind == passiveTarget:
			ok = !dt.striped && dst.st.parallelism == 1
		case st.kind == cachedTarget && dt.kind == cachedTarget:
			if src.leg.chanID != dst.leg.chanID || st.n != 1 || dt.n != 1 {
				m.t.Fatalf("a copy reused channels #%d and #%d, which do not join its servers", src.leg.chanID, dst.leg.chanID)
			}
			ok = !src.leg.reset && !dst.leg.reset
		default:
			ok = false
		}
	}
	m.nextID++
	for _, s := range []*lockSide{src, dst} {
		if s != nil {
			s.settle(ok, 1, m.nextID)
		}
	}
}

// next serves the oldest reply line, settling the legs in flight when
// none is written yet; the owed entry about to consume it must be the
// one for the command that caused it.
func (s *lockSide) next(p []byte) (int, error) {
	if len(s.out) == 0 && s.leg != nil {
		s.m.settleLegs()
	}
	if len(s.out) == 0 {
		s.m.t.Fatalf("%s: the client waits for a reply its server never sends", s.name)
	}
	l := s.out[0]
	if s.failRead && (l.verb == "REST" || strings.HasSuffix(l.verb, "-complete")) {
		s.failRead = false
		return 0, errModelTimeout
	}
	if c := s.c; c.nOwed == 0 || c.owed[0].verb != l.verb {
		s.m.t.Fatalf("%s: reply %q, for %s, read with owed %v", s.name, l.text, l.verb, c.owed[:c.nOwed])
	}
	s.out = s.out[1:]
	s.read150 = s.read150 || l.code == 150
	s.read226 = s.read226 || l.code == 226
	s.m.trace = append(s.m.trace, "")
	return copy(p, l.text+"\r\n"), nil
}

// lockOps are the model's operations: a Client transfer over each Region
// shape, a third-party copy, a parallelism change, a reset of the cached
// channel (found by the client's peek before reuse or not), a swap of
// the partner for a fresh session, and a raw REST that an ERET consumes.
var lockOps = []struct {
	name string
	run  func(m *lockModel, s, o *lockSide)
}{
	{"retr", func(m *lockModel, s, _ *lockSide) { m.own(s, "RETR obj", Region{}) }},
	{"rest_retr", func(m *lockModel, s, _ *lockSide) { m.own(s, "RETR obj", Region{Offset: 10}) }},
	{"eret", func(m *lockModel, s, _ *lockSide) { m.own(s, "ERET P 2 3 obj", Region{Offset: 2, Length: 3}) }},
	{"retr_striped", func(m *lockModel, s, _ *lockSide) { m.own(s, "RETR obj", Region{Striped: true}) }},
	{"stor", func(m *lockModel, s, _ *lockSide) { m.own(s, "STOR obj", Region{}) }},
	{"rest_stor", func(m *lockModel, s, _ *lockSide) { m.own(s, "STOR obj", Region{Offset: 10}) }},
	{"stor_striped", func(m *lockModel, s, _ *lockSide) { m.own(s, "STOR obj", Region{Striped: true}) }},
	{"copy", func(m *lockModel, s, o *lockSide) { m.copy(s, o, 0) }},
	{"rest_copy", func(m *lockModel, s, o *lockSide) { m.copy(s, o, 10) }},
	{"p1", func(_ *lockModel, s, _ *lockSide) { s.c.SetParallelism(1) }},
	{"p2", func(_ *lockModel, s, _ *lockSide) { s.c.SetParallelism(2) }},
	{"p4", func(_ *lockModel, s, _ *lockSide) { s.c.SetParallelism(4) }},
	{"reset", func(m *lockModel, s, o *lockSide) { m.resetChan(s, o, false) }},
	{"reset_peeked", func(m *lockModel, s, o *lockSide) { m.resetChan(s, o, true) }},
	{"swap", func(m *lockModel, s, _ *lockSide) {
		i := map[bool]int{true: 0, false: 1}[s == m.sides[0]]
		m.sides[i] = m.newSide(s.name + "'")
	}},
	{"rest_eret", func(m *lockModel, s, _ *lockSide) {
		if _, err := s.c.cmd("REST 10"); err == nil {
			m.own(s, "ERET P 2 3 obj", Region{Offset: 2, Length: 3})
		}
	}},
}

// lockFaults are what can go wrong in a step: a transfer verb rejected
// (a copy's RETR, or with -dst its STOR), a data connection reset during
// the transfer, a Client transfer failing on the client's side alone (a
// sink that fails, while the server ends with a cached 226), the read of
// a REST's or a completion reply timing out on the acting side (ctl) or
// its partner (ctl-other), and a reset whose drain times out. Only a
// timed-out read may desync a client.
var lockFaults = []string{"", "reject", "reject-dst", "reset", "sink", "ctl", "ctl-other", "reset+ctl"}

func (m *lockModel) own(s *lockSide, line string, at Region) {
	s.c.transfer(line, at, s.phase)
}

// copy runs ThirdPartyFrom(src, dst) and holds its results to what the
// servers said: dst engaged when its 150 was read, src's announced size
// when its 150 was, and success when both 226s were.
func (m *lockModel) copy(src, dst *lockSide, offset int64) {
	size, engaged, err := ThirdPartyFrom(src.c, dst.c, "obj", "obj", offset)
	wantSize := int64(-1)
	if src.read150 {
		wantSize = 7
	}
	if engaged != dst.read150 || size != wantSize || (err == nil) != (src.read226 && dst.read226) {
		m.t.Fatalf("copy %s->%s: size %d, engaged %v, err %v; the client read 150s %v/%v and 226s %v/%v",
			src.name, dst.name, size, engaged, err, src.read150, dst.read150, src.read226, dst.read226)
	}
}

// resetChan resets s's cached channel, at both its ends: the server's
// and the client's own, or the partner server's. With peeked the
// client's peek finds it before a reuse.
func (m *lockModel) resetChan(s, o *lockSide, peeked bool) {
	if s.st.target.kind != cachedTarget {
		return
	}
	s.reset = true
	if o.st.target.kind == cachedTarget && o.chanID == s.chanID {
		o.reset = true
	}
	if peeked {
		for _, dc := range s.c.chans {
			dc.fr.n = 1 // bytes waiting: the peek finds the channel stale
		}
	}
}

// step runs one script byte: the operation (low four bits), the side
// that acts (bit 4) and the fault (the top three bits). It then holds
// both sides to the lockstep invariants.
func (m *lockModel) step(b byte) {
	op, side, fault := lockOps[b&15], int(b>>4&1), lockFaults[b>>5]
	s, o := m.sides[side], m.sides[1-side]
	m.fault, m.trace = fault, m.trace[:0]
	for _, x := range m.sides {
		x.read150, x.read226, x.failRead = false, false, false
	}
	s.failRead = strings.HasSuffix(fault, "ctl")
	o.failRead = fault == "ctl-other"
	was := [2]bool{m.sides[0].c.desynced, m.sides[1].c.desynced}
	op.run(m, s, o)
	for i, x := range m.sides {
		err := x.check()
		if err == nil && x.c.desynced && !was[i] && !strings.Contains(fault, "ctl") {
			err = errors.New("desynced with no control read failing")
		}
		if err != nil {
			m.t.Fatalf("after %s by %s with fault %q: %s: %v", op.name, s.name, fault, x.name, err)
		}
	}
}

// check holds a side to the lockstep invariants: the client is desynced
// exactly when a reply is left unread (or a REST it sent will never meet
// its transfer verb); otherwise it owes nothing, holds no REST, agrees
// with its server on the parallelism, and its cache is its server's
// data target: the count its server holds cached, its own connections
// being those, and a paired peer sharing that one channel.
func (s *lockSide) check() error {
	c, st := s.c, s.st
	unread := len(s.out) > 0 || s.leg != nil
	if want := unread || st.rest != 0; c.desynced != want {
		return fmt.Errorf("desynced %v, unread replies %d, leg %v, server REST %d", c.desynced, len(s.out), s.leg != nil, st.rest)
	}
	if c.desynced {
		return nil
	}
	cached := 0
	if st.target.kind == cachedTarget {
		cached = st.target.n
	}
	switch {
	case c.nOwed != 0:
		return fmt.Errorf("still owed %v", c.owed[:c.nOwed])
	case c.parallelism != st.parallelism:
		return fmt.Errorf("parallelism %d, its server's %d", c.parallelism, st.parallelism)
	case c.rest:
		return errors.New("a REST left pending")
	case c.kept != cached:
		return fmt.Errorf("cache %d, its server holds %d (target %+v)", c.kept, cached, st.target)
	case c.own != (c.chans != nil) || c.own && (len(c.chans) != c.kept || c.chans[0].stripe != strconv.Itoa(s.chanID)):
		return fmt.Errorf("own %v with %d kept connections, cache %d", c.own, len(c.chans), c.kept)
	case c.peer != nil && (c.own || c.kept != 1):
		return fmt.Errorf("a peer with own %v and cache %d", c.own, c.kept)
	}
	for _, o := range s.m.sides {
		if o != s && c.peer == o.c && o.c.peer == c && o.chanID != s.chanID {
			return fmt.Errorf("paired with %s over channel #%d, which holds #%d", o.name, s.chanID, o.chanID)
		}
	}
	return nil
}

// lockScript encodes steps as a FuzzClientServerLockstep input. A step
// is "[b:]op[/fault]": b: has side B act (for a copy, B is the source).
func lockScript(steps ...string) []byte {
	var out []byte
	for _, st := range steps {
		side := byte(0)
		if rest, ok := strings.CutPrefix(st, "b:"); ok {
			side, st = 1, rest
		}
		name, fault, _ := strings.Cut(st, "/")
		b := byte(255)
		for i, op := range lockOps {
			if op.name == name {
				b = byte(i)
			}
		}
		f := -1
		for i, x := range lockFaults {
			if x == fault {
				f = i
			}
		}
		if b == 255 || f < 0 {
			panic("not in the lockstep alphabet: " + st)
		}
		out = append(out, b|side<<4|byte(f)<<5)
	}
	return out
}

// lockSeeds are FuzzClientServerLockstep's seed scripts: the cached-
// channel tests' command orders, the pipelined copy's, and the faults
// that once desynced a client.
var lockSeeds = [][]string{
	// TestRepeatedTransfersReuseDataChannels and TestRepeatedRetrAllocBudget.
	{"p2", "retr", "retr", "retr", "retr", "retr", "stor", "stor", "stor", "stor", "stor", "p4", "retr"},
	// TestCachedDataChannelResetBetweenTransfers, peeked and not.
	{"p2", "retr", "reset_peeked", "retr", "stor", "reset_peeked", "stor"},
	{"p2", "retr", "reset", "retr/reset", "retr", "stor", "reset", "stor/reset", "stor"},
	// TestRetrieveSendsNoSize.
	{"p2", "retr", "rest_retr", "eret", "rest_retr", "eret", "retr/reject"},
	// TestRestConsumedByEret.
	{"rest_eret", "retr"},
	// TestThirdPartyPipelinesStorAndRetr: a fresh copy, then a cached one.
	{"copy", "copy"},
	// TestPipelinedCopyRejectedStor.
	{"copy", "rest_copy/reject-dst", "copy", "copy"},
	// TestThirdPartyDstReusableAfterSrcReject.
	{"copy/reject", "copy"},
	// TestCachedChannelNeverCrossesPairs: the source used alone between
	// copies, a swapped partner, a resumed copy.
	{"copy", "retr", "copy", "copy", "swap", "copy", "b:swap", "b:copy", "copy", "rest_copy"},
	// A reset cached copy channel; both directions; striped transfers.
	{"copy", "reset", "copy/reset", "copy", "b:copy", "b:copy", "retr_striped", "stor_striped", "retr"},
	// Completion reads that time out, on each side of a copy, and a
	// drain that does.
	{"copy", "copy/ctl", "b:copy/ctl-other", "b:stor/reset+ctl", "b:retr"},
	{"p2", "retr", "rest_copy/ctl", "b:rest_copy/reject"},
	// The source's own channels dropped by its PORT, when the copy then
	// stops at dst's REST.
	{"retr", "rest_copy/ctl-other"},
	// Sinks that fail under a cached 226, at two streams.
	{"p2", "retr", "retr/sink", "retr", "stor/sink", "stor"},
	// A REST left owed: src's 350 is lost, so dst's REST can meet no STOR.
	{"copy", "rest_copy/ctl", "b:rest_retr/ctl"},
}

// FuzzClientServerLockstep runs scripts of client operations, each with
// a fault or none, over two model clients and their two sessions (see
// lockModel), and after every step holds both to the lockstep
// invariants (see lockSide.check): each reply read is consumed by the
// one owed entry its command made, the cache equals the server's data
// target, and a client is desynced exactly when a reply was left unread.
func FuzzClientServerLockstep(f *testing.F) {
	for _, s := range lockSeeds {
		f.Add(lockScript(s...))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		m := newLockModel(t)
		for _, b := range script {
			m.step(b)
		}
	})
}

// TestLockstepSeeds runs the fuzz seeds as a test, so a plain go test
// shows which one breaks.
func TestLockstepSeeds(t *testing.T) {
	for _, seed := range lockSeeds {
		t.Run(strings.Join(seed, ","), func(t *testing.T) {
			m := newLockModel(t)
			for _, b := range lockScript(seed...) {
				m.step(b)
			}
		})
	}
}

// TestClientStateIsPure holds the client's machine to no I/O, as
// TestSessionStateIsPure holds the server's: it imports no net, time,
// bufio or telemetry, starts no goroutine, and names no connection,
// reader, hub or span.
func TestClientStateIsPure(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "clientstate.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range file.Imports {
		switch imp.Path.Value {
		case `"net"`, `"time"`, `"bufio"`, `"gftpvc/internal/telemetry"`:
			t.Errorf("clientstate.go imports %s", imp.Path.Value)
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("clientstate.go starts a goroutine at %s", fset.Position(n.Pos()))
		case *ast.Ident:
			switch n.Name {
			case "Conn", "Reader", "Hub", "Span", "dataChan", "chans":
				t.Errorf("clientstate.go names %s at %s", n.Name, fset.Position(n.Pos()))
			}
		}
		return true
	})
}

// roundTrips is the golden of DESIGN §3's round-trip table: for each
// operation of a Client on server A (a copy: from A to B) and each cache
// state (none; A's own channel, kept by a RETR; a channel A and B kept
// from a copy), the serial control round trips and the commands of each:
// a space waits for a reply, a plus sends without waiting.
var roundTrips = []struct {
	op    string
	cells [3]string // fresh, own-cached, peer-cached
}{
	{"RETR", [3]string{"2: PASV RETR", "1: RETR", "2: PASV RETR"}},
	{"ERET", [3]string{"2: PASV ERET", "1: ERET", "2: PASV ERET"}},
	{"REST+RETR", [3]string{"3: PASV REST RETR", "2: REST RETR", "3: PASV REST RETR"}},
	{"STOR", [3]string{"2: PASV STOR", "1: STOR", "2: PASV STOR"}},
	{"REST+STOR", [3]string{"3: PASV REST STOR", "2: REST STOR", "3: PASV REST STOR"}},
	{"third-party copy", [3]string{"3: PASV PORT STOR+RETR", "3: PASV PORT STOR+RETR", "1: STOR+RETR"}},
}

// roundTripOps runs each table operation twice over: on the model (m's
// side A, and B for the copy), and on live clients a and b.
var roundTripOps = map[string]struct {
	model func(m *lockModel)
	live  func(a, b *Client) error
}{
	"RETR": {func(m *lockModel) { m.own(m.sides[0], "RETR obj", Region{}) }, func(a, _ *Client) error {
		_, err := a.RetrTo(context.Background(), "obj", io.Discard)
		return err
	}},
	"ERET": {func(m *lockModel) { m.own(m.sides[0], "ERET P 2 3 obj", Region{Offset: 2, Length: 3}) }, func(a, _ *Client) error {
		_, err := a.RetrToAt(context.Background(), "obj", io.Discard, Region{Offset: 2, Length: 3})
		return err
	}},
	"REST+RETR": {func(m *lockModel) { m.own(m.sides[0], "RETR obj", Region{Offset: 10}) }, func(a, _ *Client) error {
		_, err := a.RetrToAt(context.Background(), "obj", io.Discard, Region{Offset: 10})
		return err
	}},
	"STOR": {func(m *lockModel) { m.own(m.sides[0], "STOR obj", Region{}) }, func(a, _ *Client) error {
		_, err := a.StorFrom(context.Background(), "up", strings.NewReader("payload"), 7)
		return err
	}},
	"REST+STOR": {func(m *lockModel) { m.own(m.sides[0], "STOR obj", Region{Offset: 10}) }, func(a, _ *Client) error {
		_, err := a.StorFromAt(context.Background(), "part", strings.NewReader("payload"), Region{Offset: 10})
		return err
	}},
	"third-party copy": {func(m *lockModel) { m.copy(m.sides[0], m.sides[1], 0) }, func(a, b *Client) error {
		_, _, err := ThirdPartyFrom(a, b, "obj", "copy", 0)
		return err
	}},
}

// groups renders a model trace as a round-trip cell, and each side's
// commands in order.
func groups(trace []string) (cell string, sent map[string][]string) {
	sent = map[string][]string{}
	var out []string
	waited := true
	for _, e := range trace {
		if e == "" {
			waited = true
			continue
		}
		side, verb, _ := strings.Cut(e, " ")
		sent[side] = append(sent[side], verb)
		if waited {
			out = append(out, verb)
		} else {
			out[len(out)-1] += "+" + verb
		}
		waited = false
	}
	return fmt.Sprintf("%d: %s", len(out), strings.Join(out, " ")), sent
}

// TestClientRoundTrips derives the round-trip table from the model and
// holds it to roundTrips, then runs every cell on live servers and holds
// the commands each server's control channel reads (a wireRecorder on
// ControlListen) to the model's. One control connection carries one
// command per round trip; the copy's STOR and RETR, on two connections,
// overlap (TestThirdPartyPipelinesStorAndRetr holds that).
func TestClientRoundTrips(t *testing.T) {
	prepare := [3]struct {
		model func(m *lockModel)
		live  func(a, b *Client) error
	}{
		{func(*lockModel) {}, func(_, _ *Client) error { return nil }},
		roundTripOps["RETR"],
		roundTripOps["third-party copy"],
	}
	for _, row := range roundTrips {
		for i, want := range row.cells {
			m := newLockModel(t)
			prepare[i].model(m)
			m.trace = m.trace[:0]
			roundTripOps[row.op].model(m)
			got, sent := groups(m.trace)
			if got != want {
				t.Errorf("%s, state %d: model %q, table %q", row.op, i, got, want)
			}

			stores := [2]*MemStore{NewMemStore(), NewMemStore()}
			stores[0].Put("obj", randomPayload(64))
			stores[0].Put("part", randomPayload(10))
			var recs [2]*wireRecorder
			var clients [2]*Client
			for j := range recs {
				recs[j] = &wireRecorder{}
				clients[j] = login(t, startServer(t, Config{Store: stores[j], ControlListen: recs[j].Listen}).Addr())
			}
			if err := prepare[i].live(clients[0], clients[1]); err != nil {
				t.Fatalf("%s, state %d: preparing: %v", row.op, i, err)
			}
			var marks [2]int
			for j, rec := range recs {
				_, marks[j] = rec.last()
			}
			if err := roundTripOps[row.op].live(clients[0], clients[1]); err != nil {
				t.Fatalf("%s, state %d: %v", row.op, i, err)
			}
			for j, rec := range recs {
				conn, _ := rec.last()
				_, read, _ := conn.seen()
				var verbs []string
				for _, line := range strings.Split(strings.TrimSpace(string(read[marks[j]:])), "\r\n") {
					if verb, _, _ := strings.Cut(line, " "); verb != "" {
						verbs = append(verbs, verb)
					}
				}
				if model := sent[string(rune('A'+j))]; strings.Join(verbs, " ") != strings.Join(model, " ") {
					t.Errorf("%s, state %d: server %c read %v, the model sent %v", row.op, i, 'A'+j, verbs, model)
				}
			}
		}
	}
}

// TestCopyWithDesyncedEndSendsNothing: a resumed copy over a cached
// pair whose source is desynced fails before it writes anything, so no
// REST is left pending on the destination, which stays in sync (lockstep crasher d687ba7d: the
// destination's REST went out, the source's failed, and the destination
// was desynced for good).
func TestCopyWithDesyncedEndSendsNothing(t *testing.T) {
	store := NewMemStore()
	store.Put("obj", randomPayload(64))
	src, dst := login(t, startServer(t, Config{Store: store}).Addr()), login(t, startServer(t, Config{}).Addr())
	if _, _, err := ThirdPartyFrom(src, dst, "obj", "copy", 0); err != nil {
		t.Fatal(err)
	}
	src.desynced = true // the pair's cached channel skips PASV and PORT
	if _, _, err := ThirdPartyFrom(src, dst, "obj", "copy", 10); !errors.Is(err, ErrDesynced) {
		t.Fatalf("copy from a desynced source: %v, want ErrDesynced", err)
	}
	if dst.Desynced() {
		t.Fatal("the destination was desynced by a copy that could not start")
	}
	if err := dst.Noop(); err != nil {
		t.Fatal(err)
	}
}
