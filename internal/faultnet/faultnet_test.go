package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pair returns two ends of a loopback TCP connection, the server end
// wrapped with the given plan.
func pair(t *testing.T, plan ConnPlan) (faulted, peer net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	peer, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { peer.Close(); srv.Close() })
	return NewConn(srv, plan), peer
}

func TestTruncateWrite(t *testing.T) {
	faulted, peer := pair(t, ConnPlan{TruncateWriteAfter: 1000})
	werr := make(chan error, 1)
	go func() {
		_, err := faulted.Write(make([]byte, 10_000))
		werr <- err
	}()
	got, err := io.ReadAll(peer)
	if err != nil {
		t.Fatalf("peer read: %v", err)
	}
	if len(got) != 1000 {
		t.Errorf("peer received %d bytes, want exactly 1000", len(got))
	}
	if err := <-werr; !errors.Is(err, ErrInjected) {
		t.Errorf("writer error = %v, want ErrInjected", err)
	}
}

func TestTruncateRead(t *testing.T) {
	faulted, peer := pair(t, ConnPlan{TruncateReadAfter: 500})
	go peer.Write(make([]byte, 2000))
	got, err := io.ReadAll(faulted)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != 500 {
		t.Errorf("read %d bytes, want 500 then EOF", len(got))
	}
}

// TestResetReadCapsCrossingRead: the read that crosses the budget
// delivers at most the bytes still inside it — never the whole buffer —
// and the next read is the reset.
func TestResetReadCapsCrossingRead(t *testing.T) {
	faulted, peer := pair(t, ConnPlan{ResetReadAfter: 500})
	go peer.Write(make([]byte, 4096))
	n, err := io.ReadFull(faulted, make([]byte, 4096))
	if n != 500 || !errors.Is(err, ErrInjected) {
		t.Fatalf("read %d bytes, err %v; want exactly 500 then ErrInjected", n, err)
	}
}

// TestResetFirstConn: only the first connection the tracker ever
// accepts is faulted, whichever of its listeners accepts it.
func TestResetFirstConn(t *testing.T) {
	tr := ResetFirstConn(1)
	for i, want := range []string{"h", "hello"} {
		ln, err := tr.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			c, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return
			}
			c.Write([]byte("hello"))
			c.Close()
		}()
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(c)
		c.Close()
		ln.Close()
		if string(got) != want {
			t.Errorf("listener %d read %q, want %q", i, got, want)
		}
	}
	if tr.Total() != 2 {
		t.Errorf("Total = %d, want 2", tr.Total())
	}
}

func TestResetWrite(t *testing.T) {
	faulted, peer := pair(t, ConnPlan{ResetWriteAfter: 100})
	if _, err := faulted.Write(make([]byte, 4096)); !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v, want ErrInjected", err)
	}
	// The peer sees the stream die; after the RST any further read
	// errors (reset) rather than blocking.
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8192)
	var err error
	for err == nil {
		_, err = peer.Read(buf)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Error("peer read timed out; reset not delivered")
	}
}

func TestSlowReader(t *testing.T) {
	const delay = 50 * time.Millisecond
	faulted, peer := pair(t, ConnPlan{ReadDelay: delay})
	go peer.Write([]byte("x"))
	start := time.Now()
	if _, err := faulted.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("read returned after %v, want >= %v", elapsed, delay)
	}
}

func TestListenerPlanPerConnection(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &Listener{
		Listener: raw,
		PlanFor: func(i int) *ConnPlan {
			if i == 0 {
				return nil // first connection clean
			}
			return &ConnPlan{TruncateReadAfter: 1}
		},
	}
	defer ln.Close()
	for i := 0; i < 2; i++ {
		go func() {
			c, err := net.Dial("tcp", raw.Addr().String())
			if err != nil {
				return
			}
			c.Write([]byte("hello"))
			c.Close()
		}()
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(c)
		c.Close()
		want := "hello"
		if i == 1 {
			want = "h"
		}
		if string(got) != want {
			t.Errorf("conn %d read %q, want %q", i, got, want)
		}
	}
}

func TestTrackerCounts(t *testing.T) {
	var tr Tracker
	var lns []net.Listener
	for i := 0; i < 3; i++ {
		ln, err := tr.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns = append(lns, ln)
	}
	if tr.Open() != 3 || tr.Total() != 3 {
		t.Fatalf("open=%d total=%d after 3 listens", tr.Open(), tr.Total())
	}
	lns[0].Close()
	lns[0].Close() // double close must not double-decrement
	lns[1].Close()
	if tr.Open() != 1 || tr.Total() != 3 {
		t.Errorf("open=%d total=%d after 2 closes, want 1/3", tr.Open(), tr.Total())
	}
	lns[2].Close()
	if tr.Open() != 0 {
		t.Errorf("open=%d after all closed", tr.Open())
	}
}

// echoServer answers every line with the same bytes.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c)
			}(c)
		}
	}()
	return ln
}

func TestProxyForwardStallReset(t *testing.T) {
	ln := echoServer(t)
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Clean pass-through first.
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil || !bytes.Equal(buf, []byte("ping")) {
		t.Fatalf("echo through proxy: %q, %v", buf, err)
	}
	// Stalled: bytes vanish, the connection stays open, reads time out.
	p.Stall()
	if _, err := c.Write([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("read succeeded through a stalled proxy")
	} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
		t.Fatalf("stalled read error = %v, want timeout", err)
	}
	// Reset: the connection dies outright.
	p.Reset()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var rerr error
	for rerr == nil {
		_, rerr = c.Read(buf)
	}
	if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
		t.Error("read timed out after Reset; connection was not torn down")
	}
}
