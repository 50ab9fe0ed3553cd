package gridftp

import (
	"fmt"
	"strconv"
	"strings"

	"gftpvc/internal/telemetry"
)

// targetKind is where the next transfer's data connections come from.
type targetKind uint8

const (
	noTarget      targetKind = iota
	passiveTarget            // PASV or SPAS armed listeners
	portTarget               // PORT named an address to dial
	cachedTarget             // the last transfer kept its n data connections
)

// dataTarget is a session's one data target (DESIGN §3).
type dataTarget struct {
	kind    targetKind
	n       int    // passive: listeners armed, one per SPAS stripe; cached: connections kept
	striped bool   // passive: SPAS, one connection per listener
	addr    string // port: the address the transfer dials
}

// sessionState is a control session's protocol state: apply decides
// each command as a reply or an effect for the session to run, and the
// effects' outcomes (armed, settled) come back through it, so the data
// target is written only here. It holds no socket, listener, store,
// hub or clock. After every call: there is at most one data target; a
// pending REST has been consumed by exactly one transfer verb; a gated
// verb on an unauthenticated session has changed nothing and got 530.
type sessionState struct {
	auth    func(user, pass string) bool // Config.Auth; nil accepts any login
	stripes int                          // listeners a SPAS arms
	maxRate int64                        // Config.MaxRateBps

	user        string
	authed      bool
	binary      bool // TYPE I
	modeE       bool
	parallelism int   // OPTS RETR Parallelism: connections per PASV transfer
	sbuf        int64 // SBUF, recorded in usage records
	target      dataTarget
	rest        int64                  // pending REST offset
	rate        int64                  // SITE RATE request (0 = none)
	trace       telemetry.TraceContext // bound by SITE TRID
}

// effectKind is what the session does for one command.
type effectKind uint8

const (
	effReply    effectKind = iota // write the reply
	effArm                        // drop the target, open target.n listeners, reply; report armed
	effPort                       // drop the target (now the PORT address), reply
	effDrop                       // drop the target, reply
	effTransfer                   // run a transfer over the target it consumed; report settled
	effQuery                      // run a store query (op SIZE, NLST or CKSM), reply
	effRate                       // rebind the session bucket to rate, reply
	effQuit                       // reply, end the session
)

// effect is apply's decision for one command: the reply (code, lines,
// text), except for arm, transfer and query, which reply themselves.
type effect struct {
	kind          effectKind
	code          int // for a transfer, nonzero rejects it with this reply
	text          string
	lines         []string   // leading lines of a multi-line reply
	event, detail string     // a flight-recorder event to emit before the reply
	target        dataTarget // arm: the listeners; transfer: the target consumed
	// Transfer and query arguments; length < 0 means to the end.
	op, name       string
	offset, length int64
	rate           int64 // effRate: the effective session rate
}

// reply is an effect that only writes a reply.
func reply(code int, text string) effect { return effect{code: code, text: text} }

// verbEntry is one entry of the session's verb table.
type verbEntry struct {
	open  bool // allowed before login
	xfer  bool // a transfer verb: consumes the pending REST
	apply func(st *sessionState, arg string) effect
	label string // the verb's commands-counter label, lower case
}

var featLines = []string{"Extensions supported:",
	" PARALLEL", " SPAS", " SBUF", " SIZE", " MODE E", " ERET", " REST", " CKSM"}

// verbs is the control session's one verb table.
var verbs = map[string]verbEntry{
	"USER": {open: true, apply: func(st *sessionState, arg string) effect {
		// USER starts a new login (RFC 959 §4.1.1).
		st.user, st.authed = arg, false
		return reply(331, "password required")
	}},
	"PASS": {open: true, apply: func(st *sessionState, arg string) effect {
		if st.auth != nil && !st.auth(st.user, arg) {
			return reply(530, "authentication failed")
		}
		st.authed = true
		return reply(230, "user "+st.user+" logged in")
	}},
	"QUIT": {open: true, apply: func(*sessionState, string) effect { return effect{kind: effQuit, code: 221, text: "goodbye"} }},
	"NOOP": {open: true, apply: func(*sessionState, string) effect { return reply(200, "ok") }},
	"SYST": {open: true, apply: func(*sessionState, string) effect { return reply(215, "UNIX Type: L8") }},
	"FEAT": {open: true, apply: func(*sessionState, string) effect { return effect{code: 211, lines: featLines, text: "end"} }},
	"TYPE": {apply: func(st *sessionState, arg string) effect {
		if !strings.EqualFold(arg, "I") {
			return reply(504, "only TYPE I supported")
		}
		st.binary = true
		return reply(200, "type set to I")
	}},
	"MODE": {apply: func(st *sessionState, arg string) effect {
		switch strings.ToUpper(arg) {
		case "E":
			st.modeE = true
			return reply(200, "mode set to E")
		case "S":
			st.modeE = false
			return reply(200, "mode set to S")
		}
		return reply(504, "unknown mode")
	}},
	"SBUF": {apply: func(st *sessionState, arg string) effect {
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			return reply(501, "bad buffer size")
		}
		st.sbuf = n
		return reply(200, "buffer size set")
	}},
	"OPTS": {apply: (*sessionState).opts},
	"PASV": {apply: func(st *sessionState, _ string) effect { return st.arm(false, 1) }},
	"SPAS": {apply: func(st *sessionState, _ string) effect { return st.arm(true, st.stripes) }},
	"PORT": {apply: func(st *sessionState, arg string) effect {
		addr, err := parseHostPort(arg)
		if err != nil {
			return reply(501, err.Error())
		}
		st.target = dataTarget{kind: portTarget, addr: addr}
		return effect{kind: effPort, code: 200, text: "PORT command successful"}
	}},
	"SIZE": {apply: func(_ *sessionState, arg string) effect { return effect{kind: effQuery, op: "SIZE", name: arg} }},
	"NLST": {apply: func(_ *sessionState, arg string) effect { return effect{kind: effQuery, op: "NLST", name: arg} }},
	"CKSM": {apply: func(_ *sessionState, arg string) effect {
		// CKSM CRC32 <offset> <length> <name>; length -1 means to EOF.
		offset, length, name, shaped, ok := parseRegion(arg, "CRC32")
		switch {
		case !shaped:
			return reply(504, "syntax: CKSM CRC32 <offset> <length> <name>")
		case !ok || length < -1:
			return reply(501, "bad checksum region")
		}
		return effect{kind: effQuery, op: "CKSM", name: name, offset: offset, length: length}
	}},
	"REST": {apply: func(st *sessionState, arg string) effect {
		n, err := strconv.ParseInt(arg, 10, 64)
		if err != nil || n < 0 {
			return reply(501, "bad restart offset")
		}
		st.rest = n
		e := reply(350, "restarting at "+arg+"; send RETR or STOR")
		e.event, e.detail = "rest", "offset="+arg
		return e
	}},
	"RETR": {xfer: true, apply: func(st *sessionState, arg string) effect { return st.transfer("retr", arg, st.rest, -1) }},
	"ERET": {xfer: true, apply: func(st *sessionState, arg string) effect {
		// ERET P <offset> <length> <name> carries its own offset, so a
		// pending REST is consumed and its value ignored.
		offset, length, name, shaped, ok := parseRegion(arg, "P")
		if shaped && ok && length > 0 {
			return st.transfer("eret", name, offset, length)
		}
		st.target = dataTarget{}
		if !shaped {
			return effect{kind: effDrop, code: 501, text: "syntax: ERET P <offset> <length> <name>"}
		}
		return effect{kind: effDrop, code: 501, text: "bad partial region"}
	}},
	"STOR": {xfer: true, apply: func(st *sessionState, arg string) effect { return st.transfer("stor", arg, st.rest, -1) }},
	"SITE": {apply: (*sessionState).site},
}

// init labels each verb for the commands counter once, so counting a
// command allocates nothing.
func init() {
	for name, v := range verbs {
		v.label = strings.ToLower(name)
		verbs[name] = v
	}
}

// apply decides one command.
func (st *sessionState) apply(name, arg string) effect {
	v, known := verbs[name]
	if !v.open && !st.authed {
		return reply(530, "please login with USER and PASS")
	}
	if !known {
		return reply(502, "command not implemented: "+name)
	}
	e := v.apply(st, arg)
	if v.xfer {
		st.rest = 0
	}
	return e
}

// armed reports an arm effect's outcome: its listeners are the target,
// or none when any failed to open.
func (st *sessionState) armed(ok bool) {
	if !ok {
		st.target = dataTarget{}
	}
}

// settled reports a transfer's end: its n data connections are kept as
// the cached target, or (n == 0) the session has none.
func (st *sessionState) settled(n int) {
	st.target = dataTarget{}
	if n > 0 {
		st.target = dataTarget{kind: cachedTarget, n: n}
	}
}

// arm replaces the target with n fresh listeners, PASV's one or one per
// SPAS stripe.
func (st *sessionState) arm(striped bool, n int) effect {
	st.target = dataTarget{kind: passiveTarget, n: n, striped: striped}
	return effect{kind: effArm, target: st.target}
}

// transfer consumes the data target into a transfer effect, rejected
// with a 504 unless TYPE I and MODE E are set.
func (st *sessionState) transfer(op, name string, offset, length int64) effect {
	e := effect{kind: effTransfer, op: op, name: name, offset: offset, length: length, target: st.target}
	st.target = dataTarget{}
	if !st.binary || !st.modeE {
		e.code, e.text = 504, "set TYPE I and MODE E first"
	}
	return e
}

// opts handles "OPTS RETR Parallelism=n;" (the Globus client syntax).
// A count that changes drops a cached target, kept at the old count.
func (st *sessionState) opts(arg string) effect {
	verb, rest, _ := strings.Cut(arg, " ")
	if !strings.EqualFold(verb, "RETR") {
		return reply(501, "only OPTS RETR supported")
	}
	prev, e := st.parallelism, reply(200, "options accepted")
	for _, opt := range strings.Split(rest, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(opt), "=")
		if !ok || !strings.EqualFold(k, "Parallelism") {
			continue
		}
		n, err := strconv.Atoi(strings.Split(v, ",")[0])
		if err != nil || n < 1 || n > 64 {
			e = reply(501, "bad parallelism")
			break
		}
		st.parallelism = n
	}
	if st.parallelism != prev && st.target.kind == cachedTarget {
		st.target, e.kind = dataTarget{}, effDrop
	}
	return e
}

// site handles the SITE extensions. SITE TRID <token> binds an
// end-to-end trace context, so the session's transfer spans and
// flight-recorder events link back to the sender's span. SITE RATE
// <bps> requests a session rate, clamped by the server's cap. Unknown
// subcommands get a 500, the reply family clients treat as "old
// server, degrade silently".
func (st *sessionState) site(arg string) effect {
	sub, rest, _ := strings.Cut(arg, " ")
	switch strings.ToUpper(sub) {
	case "TRID":
		tc, err := telemetry.ParseTraceToken(strings.TrimSpace(rest))
		if err != nil {
			return reply(501, "bad trace token")
		}
		st.trace = tc
		e := reply(200, "trace "+tc.TraceID+" bound")
		e.event, e.detail = "trid_bound", "parent="+tc.ParentSID
		return e
	case "RATE":
		bps, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil || bps < 0 {
			return reply(501, "bad rate")
		}
		st.rate = bps
		e := effect{kind: effRate, code: 200, text: "session rate shaping cleared", rate: st.effectiveRate()}
		if e.rate > 0 {
			e.text = fmt.Sprintf("session shaped to %d bps", e.rate)
		}
		return e
	}
	return reply(500, "SITE "+sub+" not understood")
}

// effectiveRate is the session's shaping rate: the SITE RATE request
// clamped by the server-wide cap; 0 means unshaped.
func (st *sessionState) effectiveRate() int64 {
	eff := st.maxRate
	if st.rate > 0 && (eff == 0 || st.rate < eff) {
		eff = st.rate
	}
	return eff
}

// parseRegion parses the "<kind> <offset> <length> <name>" argument
// ERET and CKSM share. shaped is false when the argument has another
// shape; ok is false when a number does not parse or the offset is
// negative. Each verb bounds the length itself.
func parseRegion(arg, kind string) (offset, length int64, name string, shaped, ok bool) {
	f := strings.Fields(arg)
	if len(f) != 4 || !strings.EqualFold(f[0], kind) {
		return 0, 0, "", false, false
	}
	offset, err1 := strconv.ParseInt(f[1], 10, 64)
	length, err2 := strconv.ParseInt(f[2], 10, 64)
	return offset, length, f[3], true, err1 == nil && err2 == nil && offset >= 0
}
