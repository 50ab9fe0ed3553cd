package rig

import (
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc/broker"
)

// fakeTB records what a rig reports instead of failing the real test.
type fakeTB struct {
	fatals   []string
	cleanups []func()
}

func (f *fakeTB) Helper()          {}
func (f *fakeTB) Cleanup(c func()) { f.cleanups = append(f.cleanups, c) }
func (f *fakeTB) Fatalf(format string, args ...any) {
	f.fatals = append(f.fatals, fmt.Sprintf(format, args...))
}

// finish runs the cleanups the way the testing package does.
func (f *fakeTB) finish() {
	for i := len(f.cleanups) - 1; i >= 0; i-- {
		f.cleanups[i]()
	}
}

// TestCensusReportsLeaks: a cluster torn down with a logged-in client
// the rig does not own and a span nobody ended reports exactly those two
// readings; a busy cluster that released everything reports none.
func TestCensusReportsLeaks(t *testing.T) {
	tb := &fakeTB{}
	r := New(tb)
	r.settle = 50 * time.Millisecond
	srv := r.Server(gridftp.Config{})
	hub, _ := r.Hub("client")
	c, err := gridftp.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	defer hub.Span("leaked", "x", telemetry.PhaseSetup).End(nil)
	tb.finish()
	want := "rig: leak census:\n  gftpd-0 gridftp_server_sessions_active = 1\n  client spans_active = 1"
	if len(tb.fatals) != 1 || tb.fatals[0] != want {
		t.Errorf("leaky cluster reported %q, want exactly %q", tb.fatals, want)
	}

	tb = &fakeTB{}
	r = New(tb)
	srv = r.Server(gridftp.Config{}, Objects{"x": Payload(1, 64<<10)})
	if _, _, err := r.Login(srv.Addr()).Retr("x"); err != nil {
		t.Fatal(err)
	}
	r.Load(srv.Addr(), "x", 2)
	r.ControlPlane(oscarsd.Config{ReservableFraction: 0.5}, broker.Config{Gap: time.Second})
	tb.finish()
	if len(tb.fatals) != 0 {
		t.Errorf("clean cluster reported %q", tb.fatals)
	}
}

type noteListener struct {
	net.Listener
	note func()
}

func (l noteListener) Close() error { l.note(); return l.Listener.Close() }

type noteConn struct {
	net.Conn
	note func()
}

func (c noteConn) Close() error { c.note(); return c.Conn.Close() }

// TestTeardownOrder: what the rig started closes newest first, except
// that every server outlives every client, whichever came first.
func TestTeardownOrder(t *testing.T) {
	var order []string
	tb := &fakeTB{}
	r := New(tb)
	server := func(name string) *gridftp.Server {
		return r.Server(gridftp.Config{ControlListen: func(network, addr string) (net.Listener, error) {
			ln, err := net.Listen(network, addr)
			return noteListener{ln, func() { order = append(order, name) }}, err
		}})
	}
	login := func(s *gridftp.Server, name string) {
		r.Login(s.Addr(), gridftp.WithDialFunc(func(network, addr string) (net.Conn, error) {
			c, err := net.Dial(network, addr)
			return noteConn{c, func() { order = append(order, name) }}, err
		}))
	}
	a := server("server a")
	login(a, "client 1")
	b := server("server b")
	login(b, "client 2")
	tb.finish()
	if want := []string{"client 2", "client 1", "server b", "server a"}; !reflect.DeepEqual(order, want) {
		t.Errorf("teardown order %q, want %q", order, want)
	}
	if len(tb.fatals) != 0 {
		t.Errorf("teardown reported %q", tb.fatals)
	}
}

type deadlineListener struct {
	net.Listener
	deadline *time.Time
}

func (l deadlineListener) SetDeadline(t time.Time) error {
	*l.deadline = t
	return l.Listener.(*net.TCPListener).SetDeadline(t)
}

// TestServerKeepsCallerFields: every Config field the caller set reaches
// the server as given; the rig fills only what was left zero.
func TestServerKeepsCallerFields(t *testing.T) {
	r := New(t)
	var gotAddr string
	var acceptBy time.Time
	dataListens := 0
	store, hub := gridftp.NewMemStore(), telemetry.NewHub()
	srv := r.Server(gridftp.Config{
		Addr:          "caller.example:2811",
		Store:         store,
		Telemetry:     hub,
		AcceptTimeout: time.Hour,
		ControlListen: func(network, addr string) (net.Listener, error) {
			gotAddr = addr
			return net.Listen(network, bind)
		},
		DataListen: func(network, addr string) (net.Listener, error) {
			dataListens++
			ln, err := net.Listen(network, addr)
			return deadlineListener{ln, &acceptBy}, err
		},
	}, Objects{"x": Payload(1, 1<<10)})
	if _, _, err := r.Login(srv.Addr()).Retr("x"); err != nil {
		t.Fatal(err)
	}
	_, seeded := store.Get("x")
	for _, row := range []struct {
		field string
		kept  bool
	}{
		{"Addr", gotAddr == "caller.example:2811"},
		{"Store", seeded == nil},
		{"Telemetry", len(r.hubs) == 0 && hub.Counter("gridftp_server_sessions_total", "").Value() == 1},
		{"DataListen", dataListens == 1},
		{"AcceptTimeout", time.Until(acceptBy) > time.Hour/2},
	} {
		if !row.kept {
			t.Errorf("Server did not pass the caller's %s through", row.field)
		}
	}

	r.Server(gridftp.Config{})
	if len(r.hubs) != 1 || r.hubs[0].hub.ProcessName() != "gftpd-1" {
		t.Errorf("zero Telemetry not filled with a hub of the server's own: %+v", r.hubs)
	}
}
