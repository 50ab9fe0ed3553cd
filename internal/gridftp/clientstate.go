package gridftp

import "strings"

// clientState is a Client's protocol state, the counterpart of the
// server's sessionState (DESIGN §3). apply takes each event of the
// conversation and returns an action for the Client to run, so the
// cache, the owed replies and desync are decided only here; it holds no
// socket, clock, hub or reader. After every event the cache is the
// server's data target as the client last learned it, each reply read
// has been consumed by exactly one owed entry, and the client is
// desynced exactly when a reply, or a REST's transfer, was left owed.
type clientState struct {
	parallelism int

	// The cache: kept is how many data channels the server holds for the
	// next transfer, as its last 226 said. Their other ends are the
	// Client's own (Client.chans), the server's of peer, the partner of
	// a third-party copy both servers ended cached (see pair), or
	// neither, when only one side of a transfer kept them.
	kept int
	own  bool
	peer *Client

	owed  [4]owedReply // oldest first
	nOwed int
	rest  bool // a REST was answered 350 and no transfer verb consumed it

	// The transfer in flight: the connections its data phase ran over (0
	// for a third-party leg, whose data bypass the client) and whether
	// it ended well.
	conns  int
	dataOK bool

	desynced bool
}

// owedReply is one reply a client is owed: the verb it answers, a
// ProtocolError's Verb, and the code that means success.
type owedReply struct {
	verb string
	want int
}

// replies are the replies a client can be owed. A transfer verb's 150
// opens its transfer, whose completion is then owed too.
var replies = [...]owedReply{{"greeting", 220}, {"USER", 331}, {"PASS", 230}, {"TYPE", 200},
	{"MODE", 200}, {"OPTS", 200}, {"SBUF", 200}, {"SITE", 200}, {"NOOP", 200}, {"FEAT", 211},
	{"PORT", 200}, {"PASV", 227}, {"SPAS", 229}, {"SIZE", 213}, {"CKSM", 213}, {"NLST", 250},
	{"REST", 350}, {"QUIT", 221}, {"RETR", 150}, {"ERET", 150}, {"STOR", 150},
	{"RETR-complete", 226}, {"STOR-complete", 226}}

type eventKind uint8

const (
	evSent        eventKind = iota // a command was written (verb: its line); fail: the write failed
	evReply                        // a reply was read (code, text); fail: none could be
	evBegin                        // an own transfer begins: striped; idle, the kept connections' peek
	evData                         // its data phase ended over n connections; fail: it failed
	evParallelism                  // OPTS set the parallelism to n
	evDrain                        // the client is about to read what it is still owed
	evClose                        // the client is closing
)

type event struct {
	kind                eventKind
	verb, text          string
	code, n             int
	striped, idle, fail bool
}

// action is what the Client does for one event.
type action struct {
	drop  bool // close the kept data connections: their server ends are gone
	reuse bool // run the transfer over the kept data connections
	drain bool // read every reply still owed (see Client.drain)
	read  bool // drain: read the next one
}

// apply decides one event.
func (st *clientState) apply(ev event) (e action) {
	switch ev.kind {
	case evSent:
		verb, _, _ := strings.Cut(ev.verb, " ")
		if ev.fail || st.nOwed == len(st.owed) {
			st.desynced = true // the command's fate is unknown
			return e
		}
		o := owedReply{verb: "command", want: 200}
		for _, r := range replies {
			if r.verb == verb {
				o = r
			}
		}
		st.push(o)
		switch {
		case o.want == 150: // a transfer verb consumes the data target and any REST
			st.rest, st.conns, st.dataOK = false, 0, false
			return st.uncache()
		case verb == "PASV" || verb == "SPAS" || verb == "PORT":
			return st.uncache()
		}
	case evReply:
		if ev.fail {
			st.desynced = true // the owed reply is left unread
		}
		if ev.fail || st.nOwed == 0 {
			return e
		}
		o := st.owed[0]
		st.nOwed = copy(st.owed[:], st.owed[1:st.nOwed])
		switch {
		case ev.code != o.want:
		case o.verb == "REST":
			st.rest = true
		case o.verb == "STOR":
			st.push(owedReply{"STOR-complete", 226})
		case o.want == 150:
			st.push(owedReply{"RETR-complete", 226})
		case o.want == 226 && strings.HasSuffix(ev.text, channelCached):
			st.kept, st.own = max(st.conns, 1), st.conns > 0 && st.dataOK
		}
	case evBegin:
		e.reuse = !ev.striped && st.own && st.kept == st.parallelism && ev.idle
	case evData:
		st.conns, st.dataOK = ev.n, !ev.fail
		e.drain = ev.fail // its completion is still owed
	case evParallelism:
		if ev.n != st.parallelism {
			e = st.uncache()
		}
		st.parallelism = ev.n
	case evDrain:
		st.desynced = st.desynced || st.rest // it would shift the next transfer
		e.read = st.nOwed > 0 && !st.desynced
	case evClose:
		e = st.uncache()
	}
	return e
}

func (st *clientState) push(o owedReply) {
	st.owed[st.nOwed] = o
	st.nOwed++
}

// uncache forgets the cache: the server dropped or consumed its data
// target.
func (st *clientState) uncache() action {
	e := action{drop: st.own}
	st.kept, st.own, st.peer = 0, false, nil
	return e
}

// paired reports whether src and dst share a cached third-party
// channel, which their next copy runs over with no PASV or PORT.
func paired(src, dst *Client) bool { return src.peer == dst && dst.peer == src }

// pair ends a third-party copy that succeeded: when both servers kept
// its channel, src and dst remember each other.
func pair(src, dst *Client) {
	if src.kept == 1 && !src.own && dst.kept == 1 && !dst.own {
		src.peer, dst.peer = dst, src
	}
}
