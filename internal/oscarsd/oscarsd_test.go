package oscarsd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gftpvc/internal/simclock"
)

// client is a minimal test client for the line-JSON protocol.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, r: bufio.NewReader(conn)}
}

func (c *client) roundTrip(t *testing.T, req Request) Response {
	t.Helper()
	resp, err := c.call(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// call is roundTrip for goroutines other than the test's own.
func (c *client) call(req Request) (Response, error) {
	var resp Response
	data, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	if _, err := c.conn.Write(append(data, '\n')); err != nil {
		return resp, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return resp, err
	}
	err = json.Unmarshal(line, &resp)
	return resp, err
}

func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := Start(Config{
		Addr:               "127.0.0.1:0",
		Scenario:           "nersc-ornl",
		ReservableFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestStartValidation(t *testing.T) {
	if _, err := Start(Config{Addr: "127.0.0.1:0", Scenario: "mars-venus", ReservableFraction: 0.5}); !errors.Is(err, ErrUnknownScenario) {
		t.Errorf("unknown scenario: got %v, want ErrUnknownScenario", err)
	}
	if _, err := Start(Config{Addr: "127.0.0.1:0", Scenario: "nersc-ornl", ReservableFraction: 0}); err == nil {
		t.Error("zero reservable fraction should fail")
	}
}

func TestTopologyOp(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	resp := c.roundTrip(t, Request{Op: "topology"})
	if !resp.OK || len(resp.Nodes) == 0 {
		t.Fatalf("topology response: %+v", resp)
	}
}

func TestReserveCancelCycle(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	req := Request{
		Op:  "reserve",
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 4e9, Start: 100, End: 200,
	}
	resp := c.roundTrip(t, req)
	if !resp.OK || resp.ID == 0 || len(resp.Path) == 0 {
		t.Fatalf("reserve failed: %+v", resp)
	}
	// 5 Gbps reservable; a second 4 Gbps circuit in the same window must
	// be rejected.
	if r2 := c.roundTrip(t, req); r2.OK {
		t.Fatalf("overbooking admitted: %+v", r2)
	}
	// Cancel releases the bandwidth.
	if rc := c.roundTrip(t, Request{Op: "cancel", ID: resp.ID}); !rc.OK {
		t.Fatalf("cancel failed: %+v", rc)
	}
	if r3 := c.roundTrip(t, req); !r3.OK {
		t.Fatalf("post-cancel reserve failed: %+v", r3)
	}
	// Double cancel is an error.
	if rc := c.roundTrip(t, Request{Op: "cancel", ID: resp.ID}); rc.OK {
		t.Fatal("double cancel should fail")
	}
}

func TestAdvanceReservationsCoexist(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	mk := func(start, end float64) Response {
		return c.roundTrip(t, Request{
			Op:  "reserve",
			Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
			RateBps: 4e9, Start: start, End: end,
		})
	}
	if r := mk(100, 200); !r.OK {
		t.Fatalf("first window: %+v", r)
	}
	if r := mk(200, 300); !r.OK {
		t.Fatalf("adjacent window should be admitted: %+v", r)
	}
	if r := mk(150, 250); r.OK {
		t.Fatalf("overlapping window should be rejected: %+v", r)
	}
}

func TestModifyOp(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	r := c.roundTrip(t, Request{
		Op:  "reserve",
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 4e9, Start: 100, End: 200,
	})
	if !r.OK {
		t.Fatalf("reserve: %+v", r)
	}
	// Shrink to 1 Gbps: succeeds and frees bandwidth.
	if m := c.roundTrip(t, Request{
		Op: "modify", ID: r.ID, RateBps: 1e9, Start: 100, End: 200,
	}); !m.OK {
		t.Fatalf("shrink: %+v", m)
	}
	if r2 := c.roundTrip(t, Request{
		Op:  "reserve",
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 4e9, Start: 100, End: 200,
	}); !r2.OK {
		t.Fatalf("freed capacity not claimable: %+v", r2)
	}
	// Growing beyond the remaining headroom fails with rollback.
	if m := c.roundTrip(t, Request{
		Op: "modify", ID: r.ID, RateBps: 4.5e9, Start: 100, End: 200,
	}); m.OK {
		t.Fatalf("grow should fail: %+v", m)
	}
	// The original 1 Gbps booking survives: cancelling it frees exactly
	// 1 Gbps (a 1 Gbps reservation fits afterwards but not before).
	if r3 := c.roundTrip(t, Request{
		Op:  "reserve",
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 0.9e9, Start: 100, End: 200,
	}); r3.OK {
		t.Fatalf("rollback leaked bandwidth: %+v", r3)
	}
	if m := c.roundTrip(t, Request{Op: "modify", ID: 999, RateBps: 1e9, Start: 0, End: 1}); m.OK {
		t.Fatal("modify of unknown circuit should fail")
	}
	if m := c.roundTrip(t, Request{Op: "modify", ID: r.ID, RateBps: 0, Start: 0, End: 1}); m.OK {
		t.Fatal("modify with zero rate should fail")
	}
}

func TestAvailableOp(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	resp := c.roundTrip(t, Request{
		Op:  "available",
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 1e9, Start: 10, End: 20,
	})
	if !resp.OK || len(resp.Path) == 0 {
		t.Fatalf("available: %+v", resp)
	}
}

func TestValidationErrors(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	cases := []Request{
		{Op: "frobnicate"},
		{Op: "reserve", Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst", RateBps: 0, Start: 10, End: 20},
		{Op: "reserve", Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst", RateBps: 1e9, Start: 20, End: 10},
		{Op: "reserve", Src: "nope", Dst: "nersc-ornl-dtn-dst", RateBps: 1e9, Start: 10, End: 20},
		{Op: "cancel", ID: 999},
	}
	for i, req := range cases {
		if resp := c.roundTrip(t, req); resp.OK {
			t.Errorf("case %d should fail: %+v", i, resp)
		}
	}
}

// TestHelloHandshake: hello, the handshake and clock read, answers with
// the service clock and leaves the connection usable.
func TestHelloHandshake(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	r := c.roundTrip(t, Request{Op: OpHello})
	if !r.OK || r.Now <= 0 || r.Code != "" {
		t.Fatalf("hello: %+v, want OK with the service clock", r)
	}
	if later := c.roundTrip(t, Request{Op: OpHello}); !later.OK || later.Now < r.Now {
		t.Fatalf("second hello: %+v, want a clock no earlier than %v", later, r.Now)
	}
	if r := c.roundTrip(t, Request{Op: OpTopology}); !r.OK {
		t.Fatalf("topology after hello: %+v", r)
	}
}

func TestStructuredErrorCodes(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	cases := []struct {
		req  Request
		code string
	}{
		{Request{Op: "frobnicate"}, CodeUnknownOp},
		{Request{Op: OpReserve, Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
			RateBps: 0, Start: 10, End: 20}, CodeBadRequest},
		{Request{Op: OpReserve, Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
			RateBps: 1e9, Start: 20, End: 10}, CodeBadRequest},
		{Request{Op: OpReserve, Src: "nope", Dst: "nersc-ornl-dtn-dst",
			RateBps: 1e9, Start: 1000, End: 1010}, CodeNoPath},
		{Request{Op: OpReserve, Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
			RateBps: 99e9, Start: 1000, End: 1010}, CodeNoPath},
		{Request{Op: OpCancel, ID: 999}, CodeUnknownCircuit},
		{Request{Op: OpModify, ID: 999, RateBps: 1e9, Start: 0, End: 1}, CodeUnknownCircuit},
	}
	for i, tc := range cases {
		resp := c.roundTrip(t, tc.req)
		if resp.OK || resp.Code != tc.code || resp.Error == "" {
			t.Errorf("case %d: %+v, want code %q with message", i, resp, tc.code)
		}
	}
	// Successful replies never carry a code.
	if r := c.roundTrip(t, Request{Op: OpAvailable,
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 1e9, Start: 10, End: 20}); !r.OK || r.Code != "" {
		t.Fatalf("available: %+v, want OK without code", r)
	}
}

func TestMalformedLine(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv.Addr())
	if _, err := c.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" || resp.Code != CodeMalformed {
		t.Fatalf("malformed line should error with code %q: %+v", CodeMalformed, resp)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t)
	done := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			c := dial(t, srv.Addr())
			resp := c.roundTrip(t, Request{
				Op:  "reserve",
				Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
				RateBps: 1e9, Start: float64(1000 + i), End: float64(1000 + i + 1),
			})
			done <- resp.OK
		}()
	}
	okCount := 0
	for i := 0; i < 4; i++ {
		if <-done {
			okCount++
		}
	}
	// Disjoint 1-second windows at 1 Gbps on a 5 Gbps-reservable path:
	// all four must be admitted.
	if okCount != 4 {
		t.Errorf("admitted %d of 4 disjoint reservations", okCount)
	}
}

// TestModifyRaceNeverDoubleSells races refused modifies against
// reserves for the same window. Circuit A fills the path's 5 Gbps. One
// loop keeps trying to grow it to 6 Gbps, which must be refused with a
// plain rejection (A stands as it was); another keeps reserving 5 Gbps,
// which must never be admitted while A is held. A modify lifts A's
// booking out and puts it back inside one critical section of the
// ledger, so no reserve can see the gap.
func TestModifyRaceNeverDoubleSells(t *testing.T) {
	const modifies = 2000
	srv := startServer(t)
	c := dial(t, srv.Addr())
	now := c.roundTrip(t, Request{Op: OpTopology}).Now
	window := Request{
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		Start: now + 1000, End: now + 2000,
	}
	reserve := window
	reserve.Op, reserve.RateBps = OpReserve, 5e9
	a := c.roundTrip(t, reserve)
	if !a.OK {
		t.Fatalf("reserve A: %+v", a)
	}
	grow := window
	grow.Op, grow.ID, grow.RateBps = OpModify, a.ID, 6e9

	var (
		wg       sync.WaitGroup
		done     atomic.Bool
		mu       sync.Mutex
		failures []string
	)
	failf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if len(failures) < 5 {
			failures = append(failures, fmt.Sprintf(format, args...))
		}
	}
	modifier, reserver := dial(t, srv.Addr()), dial(t, srv.Addr())
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < modifies; i++ {
			r, err := modifier.call(grow)
			switch {
			case err != nil:
				failf("modify %d: %v", i, err)
				return
			case r.OK:
				failf("modify %d: growing A past the link was admitted: %+v", i, r)
				return
			case r.Code != CodeRejected || !strings.HasPrefix(r.Error, "modify rejected: "):
				failf("modify %d: %+v, want a plain %q", i, r, CodeRejected)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; !done.Load(); n++ {
			r, err := reserver.call(reserve)
			switch {
			case err != nil:
				failf("reserve %d: %v", n, err)
				return
			case r.OK:
				failf("reserve %d admitted while A holds the link: %+v", n, r)
				return
			}
		}
	}()
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	// A still stands: nothing more fits, and cancelling it frees the link.
	probe := reserve
	probe.RateBps = 1e9
	if r := c.roundTrip(t, probe); r.OK {
		t.Fatalf("A's booking was lost: %+v", r)
	}
	if r := c.roundTrip(t, Request{Op: OpCancel, ID: a.ID}); !r.OK {
		t.Fatalf("cancel A: %+v", r)
	}
	if r := c.roundTrip(t, reserve); !r.OK {
		t.Fatalf("reserve after cancelling A: %+v", r)
	}
}

// TestHeldBoundedByLiveCircuits: a circuit that ends without a cancel is
// forgotten once its end is heldGrace old, so after n such circuits the
// daemon holds only the live ones, and a cancel or modify of a forgotten
// circuit answers CodeUnknownCircuit. The daemon's clock is moved on by
// moving its epoch back, so nothing sleeps.
func TestHeldBoundedByLiveCircuits(t *testing.T) {
	const n, live, rate = 50, 3, 0.1e9
	s, err := newServer(Config{Scenario: "nersc-ornl", ReservableFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reserve := func(start, end float64) int64 {
		t.Helper()
		r := s.reserve(Request{Op: OpReserve, Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
			RateBps: rate, Start: start, End: end})
		if !r.OK {
			t.Fatalf("reserve [%v,%v): %+v", start, end, r)
		}
		return r.ID
	}
	pastGrace := func() { s.epoch = s.epoch.Add(-heldGrace - 10*time.Second) }
	var expired []int64
	for range n {
		now := float64(s.now())
		expired = append(expired, reserve(now+1, now+2))
		pastGrace()
	}
	// The last one has not been swept by a reserve yet; its answers
	// already follow the grace.
	last := expired[len(expired)-1]
	if r := s.modify(Request{Op: OpModify, ID: last, RateBps: rate, Start: 1e9, End: 1e9 + 1}); r.Code != CodeUnknownCircuit {
		t.Errorf("modify of a circuit past the grace: %+v, want %s", r, CodeUnknownCircuit)
	}
	if r := s.cancel(Request{Op: OpCancel, ID: last}); r.Code != CodeUnknownCircuit {
		t.Errorf("cancel of a circuit past the grace: %+v, want %s", r, CodeUnknownCircuit)
	}
	now := float64(s.now())
	for range live {
		reserve(now+1, now+3600)
	}
	if got := len(s.held); got != live {
		t.Errorf("after %d expired and %d live circuits the daemon holds %d, want %d", n, live, got, live)
	}
	if r := s.cancel(Request{Op: OpCancel, ID: expired[0]}); r.Code != CodeUnknownCircuit {
		t.Errorf("cancel of a swept circuit: %+v, want %s", r, CodeUnknownCircuit)
	}
}

// TestExpiredCircuitsPruned: circuits that end without a cancel leave no
// booking in any link calendar once a later modify or reserve has run
// on the daemon's clock, and they stay held: a modify of one re-books
// it and a cancel of one answers ok.
func TestExpiredCircuitsPruned(t *testing.T) {
	const n, rate = 8, 0.5e9
	srv := startServer(t)
	c := dial(t, srv.Addr())
	reserve := func(start, end float64) Response {
		t.Helper()
		r := c.roundTrip(t, Request{Op: OpReserve, Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
			RateBps: rate, Start: start, End: end})
		if !r.OK {
			t.Fatalf("reserve [%v,%v): %+v", start, end, r)
		}
		return r
	}
	// booked sums what the links' calendars hold over [start, end).
	booked := func(start, end float64) float64 {
		total := 0.0
		for _, l := range srv.ledger.Topology().Links() {
			avail, err := srv.ledger.Available(l, simclock.Time(start), simclock.Time(end))
			if err != nil {
				t.Fatal(err)
			}
			total += l.CapacityBps*0.5 - avail
		}
		return total
	}
	// expire reserves n circuits that end a moment from now and waits
	// until the daemon's clock has passed their end.
	expire := func() (ids []int64, start, end float64) {
		t.Helper()
		now := c.roundTrip(t, Request{Op: OpTopology}).Now
		start, end = now+0.05, now+0.15
		for range n {
			ids = append(ids, reserve(start, end).ID)
		}
		if booked(start, end) == 0 {
			t.Fatal("the circuits booked nothing")
		}
		for c.roundTrip(t, Request{Op: OpTopology}).Now <= end {
			time.Sleep(10 * time.Millisecond)
		}
		return ids, start, end
	}

	ids, start, end := expire()
	if m := c.roundTrip(t, Request{Op: OpModify, ID: ids[0], RateBps: rate, Start: end + 100, End: end + 200}); !m.OK {
		t.Fatalf("modify of an expired circuit: %+v", m)
	}
	if got := booked(start, end); got != 0 {
		t.Errorf("after a modify the calendars still book %.0f bps of expired circuits", got)
	}
	if rc := c.roundTrip(t, Request{Op: OpCancel, ID: ids[1]}); !rc.OK {
		t.Errorf("cancel of an expired circuit: %+v", rc)
	}

	_, start, end = expire()
	reserve(end+100, end+200)
	if got := booked(start, end); got != 0 {
		t.Errorf("after a reserve the calendars still book %.0f bps of expired circuits", got)
	}
}
