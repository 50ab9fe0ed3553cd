package gridftp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// newTestState is a session state as handle makes it, on a two-stripe
// server whose Auth accepts only the password "p".
func newTestState() sessionState {
	return sessionState{
		auth:        func(_, pass string) bool { return pass == "p" },
		stripes:     2,
		parallelism: 1,
	}
}

// step applies one command line to st the way handle splits it, then
// reports the effect's outcome as the executor would: an arm succeeds
// and a transfer keeps its channels when ok, kept channels needing a
// transfer that ran over a target that is not striped: PASV's
// parallelism connections, PORT's one, or the cached ones. It returns
// the effect and fails t when an invariant breaks.
func step(t *testing.T, st *sessionState, line string, ok bool) effect {
	t.Helper()
	verb, arg, _ := strings.Cut(line, " ")
	verb = strings.ToUpper(verb)
	before := *st
	e := st.apply(verb, arg)
	if err := checkStep(before, *st, verb, e); err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	switch e.kind {
	case effArm:
		st.armed(ok)
	case effTransfer:
		kept := 0
		if ok && e.code == 0 {
			kept = map[targetKind]int{passiveTarget: st.parallelism, portTarget: 1, cachedTarget: e.target.n}[e.target.kind]
			if e.target.striped {
				kept = 0
			}
		}
		st.settled(kept)
	}
	if err := checkTarget(st.target, st.stripes); err != nil {
		t.Fatalf("%s, outcome %v: %v", line, ok, err)
	}
	return e
}

// checkTarget holds the one data target to a well-formed value.
func checkTarget(tg dataTarget, stripes int) error {
	switch tg.kind {
	case noTarget:
		if tg != (dataTarget{}) {
			return fmt.Errorf("no target carries a payload: %+v", tg)
		}
	case cachedTarget:
		if tg.addr != "" || tg.striped || tg.n < 1 {
			return fmt.Errorf("bad cached target %+v", tg)
		}
	case passiveTarget:
		if tg.addr != "" || (!tg.striped && tg.n != 1) || (tg.striped && tg.n != stripes) {
			return fmt.Errorf("bad passive target %+v", tg)
		}
	case portTarget:
		if tg.addr == "" || tg.n != 0 || tg.striped {
			return fmt.Errorf("bad port target %+v", tg)
		}
	default:
		return fmt.Errorf("unknown target kind %d", tg.kind)
	}
	return nil
}

// sameState reports whether two states are equal, the one func field
// aside.
func sameState(a, b sessionState) bool {
	a.auth, b.auth = nil, nil
	return reflect.DeepEqual(a, b)
}

// replyClasses is, per verb, every (effect, reply) pair apply may
// decide; "arm", "query" and "transfer" mark effects whose reply the
// session writes, and "transfer 504" the rejection without MODE E.
var replyClasses = map[string][]string{
	"USER": {"331"}, "PASS": {"230", "530"}, "QUIT": {"quit 221"},
	"NOOP": {"200"}, "SYST": {"215"}, "FEAT": {"211"},
	"TYPE": {"200", "504"}, "MODE": {"200", "504"}, "SBUF": {"200", "501"},
	"OPTS": {"200", "501", "drop 200", "drop 501"}, "PASV": {"arm"}, "SPAS": {"arm"},
	"PORT": {"port 200", "501"}, "SIZE": {"query"}, "NLST": {"query"},
	"CKSM": {"query", "501", "504"}, "REST": {"350", "501"},
	"RETR": {"transfer", "transfer 504"}, "STOR": {"transfer", "transfer 504"},
	"ERET": {"transfer", "transfer 504", "drop 501"},
	"SITE": {"200", "rate 200", "500", "501"},
}

var effectNames = [...]string{"", "arm", "port", "drop", "transfer", "query", "rate", "quit"}

// class renders an effect as its replyClasses entry.
func class(e effect) string {
	s := effectNames[e.kind]
	if e.code != 0 {
		s = strings.TrimSpace(s + " " + strconv.Itoa(e.code))
	}
	return s
}

// openVerbs are the verbs allowed before login, and transferVerbs the
// ones that consume a pending REST, written here apart from the verb
// table so that checkStep holds the table to them.
var (
	openVerbs     = map[string]bool{"USER": true, "PASS": true, "QUIT": true, "NOOP": true, "SYST": true, "FEAT": true}
	transferVerbs = map[string]bool{"RETR": true, "ERET": true, "STOR": true}
)

// checkStep holds one apply call to the session invariants: the data
// target is one well-formed value, changed only by the effects that
// name it; a pending REST is consumed by exactly one transfer verb; a
// gated verb on an unauthenticated session changes nothing and gets
// 530; USER logs out and only a 230 logs in; and every reply stays in
// its verb's class.
func checkStep(before, after sessionState, verb string, e effect) error {
	if err := checkTarget(after.target, after.stripes); err != nil {
		return err
	}
	_, known := verbs[verb]
	if !before.authed && !openVerbs[verb] {
		if !sameState(after, before) || e.kind != effReply || e.code != 530 {
			return fmt.Errorf("gated verb on an unauthenticated session: %+v -> %+v, effect %+v", before, after, e)
		}
		return nil
	}
	if !known {
		if !sameState(after, before) || class(e) != "502" {
			return fmt.Errorf("unknown verb changed state or got %q", class(e))
		}
		return nil
	}
	if c := class(e); !containsString(replyClasses[verb], c) {
		return fmt.Errorf("%s replied %q, outside its class %v", verb, c, replyClasses[verb])
	}
	switch e.kind {
	case effArm:
		if after.target != e.target || e.target.kind != passiveTarget {
			return fmt.Errorf("arm left target %+v for %+v", after.target, e.target)
		}
	case effPort:
		if after.target.kind != portTarget {
			return fmt.Errorf("PORT left target %+v", after.target)
		}
	case effDrop:
		if after.target.kind != noTarget {
			return fmt.Errorf("drop left target %+v", after.target)
		}
	case effTransfer:
		if e.target != before.target || after.target.kind != noTarget {
			return fmt.Errorf("transfer took %+v from %+v, left %+v", e.target, before.target, after.target)
		}
		if verb != "ERET" && e.offset != before.rest {
			return fmt.Errorf("%s started at %d with REST %d pending", verb, e.offset, before.rest)
		}
	default:
		if after.target != before.target {
			return fmt.Errorf("%s moved the target %+v -> %+v", verb, before.target, after.target)
		}
	}
	switch xfer := transferVerbs[verb]; {
	case xfer && after.rest != 0:
		return fmt.Errorf("%s left REST %d pending", verb, after.rest)
	case !xfer && verb != "REST" && after.rest != before.rest:
		return fmt.Errorf("%s changed the pending REST %d -> %d", verb, before.rest, after.rest)
	case verb == "USER" && after.authed:
		return errors.New("USER left the session logged in")
	case verb != "PASS" && after.authed && !before.authed:
		return fmt.Errorf("%s logged the session in", verb)
	case verb == "PASS" && after.authed != (before.authed || e.code == 230):
		return fmt.Errorf("PASS replied %d and left authed=%v", e.code, after.authed)
	}
	return nil
}

func containsString(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

const testTraceToken = "0123456789abcdef-01234567"

// tableStates are the columns of the state x verb table, each reached
// from a fresh session by a command script whose arms and transfers
// succeed and keep their channel.
var tableStates = []struct {
	name   string
	script []string
}{
	{"unauth", nil},
	{"authed", []string{"USER u", "PASS p"}},
	{"none", []string{"USER u", "PASS p", "TYPE I", "MODE E"}},
	{"passive", []string{"USER u", "PASS p", "TYPE I", "MODE E", "PASV"}},
	{"port", []string{"USER u", "PASS p", "TYPE I", "MODE E", "PORT 127,0,0,1,4,1"}},
	{"cached", []string{"USER u", "PASS p", "TYPE I", "MODE E", "PASV", "RETR obj"}},
	{"rest", []string{"USER u", "PASS p", "TYPE I", "MODE E", "REST 10"}},
}

// TestSessionStateTable enumerates every verb against every state:
// unauthenticated; authenticated without TYPE I and MODE E; authenticated
// with each of the four data targets; and with a REST pending. A cell is
// the effect and the reply apply decides ("arm SPAS×2", "transfer port",
// "port 200", a bare code for a plain reply), then what else changed.
// DESIGN §3 quotes this table.
func TestSessionStateTable(t *testing.T) {
	table := []struct {
		cmd  string
		want [7]string // unauth, authed, none, passive, port, cached, rest
	}{
		{"USER u", [7]string{"331", "331 logout", "331 logout", "331 logout", "331 logout", "331 logout", "331 logout"}},
		{"PASS p", [7]string{"230 login", "230", "230", "230", "230", "230", "230"}},
		{"QUIT", [7]string{"quit 221", "quit 221", "quit 221", "quit 221", "quit 221", "quit 221", "quit 221"}},
		{"NOOP", [7]string{"200", "200", "200", "200", "200", "200", "200"}},
		{"SYST", [7]string{"215", "215", "215", "215", "215", "215", "215"}},
		{"FEAT", [7]string{"211", "211", "211", "211", "211", "211", "211"}},
		{"TYPE I", [7]string{"530", "200", "200", "200", "200", "200", "200"}},
		{"MODE E", [7]string{"530", "200", "200", "200", "200", "200", "200"}},
		{"SBUF 65536", [7]string{"530", "200", "200", "200", "200", "200", "200"}},
		{"OPTS RETR Parallelism=4;", [7]string{"530", "200", "200", "200", "200", "drop 200", "200"}},
		{"PASV", [7]string{"530", "arm PASV", "arm PASV", "arm PASV", "arm PASV", "arm PASV", "arm PASV"}},
		{"SPAS", [7]string{"530", "arm SPAS×2", "arm SPAS×2", "arm SPAS×2", "arm SPAS×2", "arm SPAS×2", "arm SPAS×2"}},
		{"PORT 127,0,0,1,4,1", [7]string{"530", "port 200", "port 200", "port 200", "port 200", "port 200", "port 200"}},
		{"SIZE obj", [7]string{"530", "query SIZE", "query SIZE", "query SIZE", "query SIZE", "query SIZE", "query SIZE"}},
		{"NLST", [7]string{"530", "query NLST", "query NLST", "query NLST", "query NLST", "query NLST", "query NLST"}},
		{"CKSM CRC32 0 -1 obj", [7]string{"530", "query CKSM", "query CKSM", "query CKSM", "query CKSM", "query CKSM", "query CKSM"}},
		{"REST 10", [7]string{"530", "350 rest=10", "350 rest=10", "350 rest=10", "350 rest=10", "350 rest=10", "350"}},
		{"RETR obj", [7]string{"530", "transfer none 504", "transfer none", "transfer passive", "transfer port", "transfer cached", "transfer none @10 rest=0"}},
		{"ERET P 0 3 obj", [7]string{"530", "transfer none 504", "transfer none", "transfer passive", "transfer port", "transfer cached", "transfer none rest=0"}},
		{"STOR obj", [7]string{"530", "transfer none 504", "transfer none", "transfer passive", "transfer port", "transfer cached", "transfer none @10 rest=0"}},
		{"SITE RATE 1000", [7]string{"530", "rate 200", "rate 200", "rate 200", "rate 200", "rate 200", "rate 200"}},
		{"SITE TRID " + testTraceToken, [7]string{"530", "200 trace", "200 trace", "200 trace", "200 trace", "200 trace", "200 trace"}},
		{"XYZZY", [7]string{"530", "502", "502", "502", "502", "502", "502"}},
	}
	covered := map[string]bool{}
	for _, row := range table {
		verb, _, _ := strings.Cut(row.cmd, " ")
		covered[verb] = true
		for i, col := range tableStates {
			st := newTestState()
			for _, line := range col.script {
				step(t, &st, line, true)
			}
			before := st
			e := step(t, &st, row.cmd, true)
			if got := cell(before, st, e); got != row.want[i] {
				t.Errorf("%s in %s: got %q, want %q", row.cmd, col.name, got, row.want[i])
			}
		}
	}
	for verb := range verbs {
		if !covered[verb] {
			t.Errorf("verb %s has no table row", verb)
		}
	}
}

var targetNames = [...]string{"none", "passive", "port", "cached"}

// cell renders one table cell: the effect, then what else changed.
func cell(before, after sessionState, e effect) string {
	s := class(e)
	switch e.kind {
	case effArm:
		s = "arm PASV"
		if e.target.striped {
			s = fmt.Sprintf("arm SPAS×%d", e.target.n)
		}
	case effQuery:
		s += " " + e.op
	case effTransfer:
		s = "transfer " + targetNames[e.target.kind]
		if e.offset > 0 && e.length < 0 {
			s += fmt.Sprintf(" @%d", e.offset)
		}
		if e.code != 0 {
			s += " " + strconv.Itoa(e.code)
		}
	}
	if e.event == "trid_bound" && after.trace.TraceID != "" {
		s += " trace"
	}
	if after.authed != before.authed {
		s += map[bool]string{true: " login", false: " logout"}[after.authed]
	}
	if after.rest != before.rest {
		s += fmt.Sprintf(" rest=%d", after.rest)
	}
	return s
}

// TestSessionStateOutcomes pins how effect outcomes move the target: a
// failed arm leaves none, a transfer leaves cached channels only when it
// kept them, and a changed parallelism drops them.
func TestSessionStateOutcomes(t *testing.T) {
	st := newTestState()
	for _, line := range tableStates[2].script {
		step(t, &st, line, true)
	}
	step(t, &st, "SPAS", false)
	if st.target.kind != noTarget {
		t.Fatalf("failed arm left %+v", st.target)
	}
	step(t, &st, "PORT 127,0,0,1,4,1", true)
	step(t, &st, "STOR obj", true)
	if st.target.kind != cachedTarget {
		t.Fatalf("kept channel not cached: %+v", st.target)
	}
	step(t, &st, "RETR obj", false)
	if st.target.kind != noTarget {
		t.Fatalf("unkept transfer left %+v", st.target)
	}
	step(t, &st, "OPTS RETR Parallelism=2;", true)
	step(t, &st, "PASV", true)
	step(t, &st, "RETR obj", true)
	if st.target != (dataTarget{kind: cachedTarget, n: 2}) {
		t.Fatalf("two-stream transfer cached %+v, want two channels", st.target)
	}
	if e := step(t, &st, "OPTS RETR Parallelism=2;", true); e.kind != effReply || st.target.n != 2 {
		t.Fatalf("an unchanged count moved the cache: %+v, %+v", e, st.target)
	}
	if e := step(t, &st, "OPTS RETR Parallelism=4;", true); e.kind != effDrop || st.target.kind != noTarget {
		t.Fatalf("a changed count kept the cache: %+v, %+v", e, st.target)
	}
}

// fuzzCommands is FuzzSessionState's alphabet: every verb of the table,
// with arguments that take each parse path, and one unknown verb.
var fuzzCommands = []string{
	"USER u", "USER mallory", "PASS p", "PASS wrong", "QUIT", "NOOP", "SYST", "FEAT",
	"TYPE I", "TYPE A", "MODE E", "MODE S", "MODE X", "SBUF 65536", "SBUF -1",
	"OPTS RETR Parallelism=4;", "OPTS RETR Parallelism=2;", "OPTS RETR Parallelism=0;", "OPTS STOR x",
	"PASV", "SPAS", "PORT 127,0,0,1,4,1", "PORT 127,0,0,1,4,2", "PORT bad",
	"SIZE obj", "NLST", "CKSM CRC32 0 -1 obj", "CKSM MD5 0 1 obj", "CKSM CRC32 -1 1 obj",
	"REST 10", "REST 0", "REST -1", "RETR obj", "ERET P 0 3 obj", "ERET P 0 0 obj", "ERET X",
	"STOR obj", "SITE RATE 1000", "SITE RATE 0", "SITE RATE x",
	"SITE TRID " + testTraceToken, "SITE TRID bad", "SITE FOO", "XYZZY",
}

// fuzzScript encodes command lines as a FuzzSessionState input; a line
// suffixed with "!" has its arm or transfer fail or not keep a channel.
func fuzzScript(lines ...string) []byte {
	var out []byte
	for _, l := range lines {
		fail := strings.HasSuffix(l, "!")
		l = strings.TrimSuffix(l, "!")
		i := -1
		for j, c := range fuzzCommands {
			if c == l {
				i = j
			}
		}
		if i < 0 {
			panic("not in the fuzz alphabet: " + l)
		}
		b := byte(i << 1)
		if !fail {
			b |= 1
		}
		out = append(out, b)
	}
	return out
}

// FuzzSessionState runs bounded command scripts against sessionState
// alone, no sockets: each byte picks a command (high bits) and the
// outcome of its arm or transfer (low bit). After every step the
// session invariants must hold and every reply stay in its class (see
// checkStep). It is the model a socket-level session fuzzer checks the
// real server against.
func FuzzSessionState(f *testing.F) {
	login := []string{"USER u", "PASS p", "TYPE I", "MODE E"}
	seeds := [][]string{
		// A pending REST is consumed by ERET; USER starts a new login.
		{"REST 10", "PASV", "ERET P 0 3 obj", "PASV", "RETR obj"},
		{"USER mallory", "SIZE obj", "PASS wrong", "SIZE obj"},
		// The fault matrix's command orders, failing and not.
		{"SIZE obj", "PASV", "RETR obj!", "SIZE obj", "PASV", "RETR obj"},
		{"SIZE obj", "SPAS", "RETR obj!", "SPAS!", "RETR obj"},
		{"SIZE obj", "PASV", "ERET P 0 3 obj!", "PASV", "REST 10", "RETR obj"},
		{"PASV", "STOR obj!", "SPAS", "STOR obj!", "SIZE obj", "PASV", "REST 10", "STOR obj"},
		// Both legs of a third-party copy, then its cached-channel reuse
		// and a reset of the cached channel.
		{"PASV", "STOR obj", "STOR obj", "STOR obj!", "PASV", "STOR obj"},
		{"PORT 127,0,0,1,4,1", "RETR obj", "RETR obj", "REST 10", "RETR obj!", "PORT 127,0,0,1,4,2", "RETR obj"},
		// Four-stream channels cached across both directions, then a count
		// that stays, one that changes, and one that fails.
		{"OPTS RETR Parallelism=4;", "PASV", "RETR obj", "STOR obj", "OPTS RETR Parallelism=4;", "ERET P 0 3 obj",
			"OPTS RETR Parallelism=2;", "PASV", "STOR obj", "OPTS RETR Parallelism=0;", "RETR obj!", "SPAS", "RETR obj"},
		// Striped on a one-stripe-looking order, and rate and trace binds.
		{"OPTS RETR Parallelism=4;", "SPAS", "PASV", "SITE RATE 1000", "SITE TRID " + testTraceToken, "RETR obj", "QUIT"},
	}
	for _, s := range seeds {
		f.Add(fuzzScript(append(append([]string{}, login...), s...)...))
	}
	f.Add(fuzzScript("RETR obj", "REST 10", "PASS p", "RETR obj", "TYPE I", "MODE E", "PASV", "RETR obj"))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		st := newTestState()
		for _, b := range script {
			step(t, &st, fuzzCommands[int(b>>1)%len(fuzzCommands)], b&1 == 1)
		}
	})
}

// TestFuzzAlphabetCoversVerbTable keeps FuzzSessionState over the real
// verb set as the table changes.
func TestFuzzAlphabetCoversVerbTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range fuzzCommands {
		verb, _, _ := strings.Cut(c, " ")
		seen[verb] = true
	}
	var missing []string
	for verb := range verbs {
		if !seen[verb] {
			missing = append(missing, verb)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Fatalf("verbs missing from the fuzz alphabet: %v", missing)
	}
	if len(fuzzCommands) > 128 {
		t.Fatal("the alphabet outgrew one byte's high bits")
	}
}

// TestSessionStateIsPure holds the state machine's file to no I/O: it
// imports only string and number handling plus telemetry's trace
// context, names no socket, listener, store, hub or clock, and keeps
// the data target in one field.
func TestSessionStateIsPure(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "sessionstate.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{`"fmt"`: true, `"strconv"`: true, `"strings"`: true, `"gftpvc/internal/telemetry"`: true}
	for _, imp := range file.Imports {
		if !allowed[imp.Path.Value] {
			t.Errorf("sessionstate.go imports %s", imp.Path.Value)
		}
	}
	targets := 0
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "telemetry" && n.Sel.Name != "TraceContext" && n.Sel.Name != "ParseTraceToken" {
				t.Errorf("sessionstate.go uses telemetry.%s", n.Sel.Name)
			}
		case *ast.Ident:
			switch n.Name {
			case "Store", "Hub", "Listener", "Conn", "Server", "session":
				t.Errorf("sessionstate.go names %s", n.Name)
			}
		case *ast.TypeSpec:
			if s, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "sessionState" {
				for _, fld := range s.Fields.List {
					if id, ok := fld.Type.(*ast.Ident); ok && id.Name == "dataTarget" {
						targets += len(fld.Names)
					}
				}
			}
		}
		return true
	})
	if targets != 1 {
		t.Errorf("sessionState has %d data-target fields, want 1", targets)
	}
}

// TestRestConsumedByEret: ERET carries its own offset, so it consumes
// a pending REST; the next plain RETR delivers the whole object rather
// than starting at the stale offset.
func TestRestConsumedByEret(t *testing.T) {
	store := NewMemStore()
	payload := randomPayload(64)
	store.Put("obj", payload)
	c := login(t, startServer(t, Config{Store: store}).Addr())
	if rep, err := c.cmd("REST 10"); err != nil || rep.Code != 350 {
		t.Fatalf("REST 10: %v %v", rep, err)
	}
	got, _, err := fetch(c, "obj", Region{Length: 3})
	if err != nil || !bytes.Equal(got, payload[:3]) {
		t.Fatalf("ERET P 0 3: %q, %v", got, err)
	}
	var buf bytes.Buffer
	if _, err := c.RetrTo(context.Background(), "obj", &buf); err != nil {
		t.Fatalf("RETR after ERET: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Fatalf("RETR after ERET delivered %d bytes, want the whole %d", buf.Len(), len(payload))
	}
}

// TestUserStartsNewLogin: USER on a logged-in channel starts a new
// login (RFC 959 §4.1.1), so gated verbs get 530 until a PASS succeeds.
func TestUserStartsNewLogin(t *testing.T) {
	store := NewMemStore()
	store.Put("obj", []byte("hello"))
	srv := startServer(t, Config{Store: store, Auth: func(user, pass string) bool { return user == "u" && pass == "p" }})
	send := rawControl(t, srv.Addr())
	if rep := send("SIZE obj"); !strings.HasPrefix(rep, "213 ") {
		t.Fatalf("SIZE after login: %s", rep)
	}
	for _, c := range []struct{ cmd, want string }{
		{"USER mallory", "331 "},
		{"SIZE obj", "530 "},
		{"PASS wrong", "530 "},
		{"SIZE obj", "530 "},
		{"USER u", "331 "},
		{"PASS p", "230 "},
		{"SIZE obj", "213 "},
	} {
		if rep := send(c.cmd); !strings.HasPrefix(rep, c.want) {
			t.Errorf("%s: got %q, want %s...", c.cmd, rep, c.want)
		}
	}
}
