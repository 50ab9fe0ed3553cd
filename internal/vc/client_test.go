package vc

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
)

func startDaemon(t *testing.T) *oscarsd.Server {
	t.Helper()
	srv, err := oscarsd.Start(oscarsd.Config{
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

func dialClient(t *testing.T, addr string, opts ...Option) *Client {
	t.Helper()
	c, err := Dial(context.Background(), addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTypedOperations(t *testing.T) {
	srv := startDaemon(t)
	c := dialClient(t, srv.Addr())
	ctx := context.Background()

	top, err := c.Topology(ctx)
	if err != nil || len(top.Nodes) == 0 {
		t.Fatalf("Topology: %+v, %v", top, err)
	}
	req := ReserveRequest{
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 4e9, Start: top.Now + 100, End: top.Now + 200,
	}
	if path, err := c.Available(ctx, req); err != nil || len(path) == 0 {
		t.Fatalf("Available: %v, %v", path, err)
	}
	res, err := c.Reserve(ctx, req)
	if err != nil || res.ID == 0 || len(res.Path) == 0 {
		t.Fatalf("Reserve: %+v, %v", res, err)
	}
	if res.Src != req.Src || res.Dst != req.Dst {
		t.Errorf("reservation endpoints %s -> %s, want %s -> %s",
			res.Src, res.Dst, req.Src, req.Dst)
	}
	mod, err := c.Modify(ctx, ModifyRequest{
		ID: res.ID, RateBps: 1e9, Start: req.Start, End: req.End + 100,
	})
	if err != nil || mod.ID != res.ID {
		t.Fatalf("Modify: %+v, %v", mod, err)
	}
	if err := c.Cancel(ctx, res.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if now, err := c.Now(ctx); err != nil || now < 0 {
		t.Fatalf("Now: %v, %v", now, err)
	}
}

func TestSentinelMapping(t *testing.T) {
	srv := startDaemon(t)
	c := dialClient(t, srv.Addr())
	ctx := context.Background()
	now, err := c.Now(ctx)
	if err != nil {
		t.Fatal(err)
	}
	req := ReserveRequest{
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 4e9, Start: now + 100, End: now + 200,
	}
	if _, err := c.Reserve(ctx, req); err != nil {
		t.Fatal(err)
	}
	// The 5 Gbps-reservable path cannot fit a second 4 Gbps circuit.
	_, err = c.Reserve(ctx, req)
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("overbook: %v, want ErrNoPath", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Code != oscarsd.CodeNoPath || se.Msg == "" {
		t.Fatalf("overbook ServerError: %+v", se)
	}
	if err := c.Cancel(ctx, 9999); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("cancel unknown: %v, want ErrUnknownCircuit", err)
	}
	if _, err := c.Modify(ctx, ModifyRequest{ID: 9999, RateBps: 1e9, Start: now + 1, End: now + 2}); !errors.Is(err, ErrUnknownCircuit) {
		t.Fatalf("modify unknown: %v, want ErrUnknownCircuit", err)
	}
	// Validation failures are rejections, not path exhaustion.
	if _, err := c.Reserve(ctx, ReserveRequest{
		Src: req.Src, Dst: req.Dst, RateBps: -1, Start: now + 1, End: now + 2,
	}); !errors.Is(err, ErrRejected) {
		t.Fatalf("bad rate: %v, want ErrRejected", err)
	}
	// Sentinels are disjoint: a no-path error is not a rejected error.
	if _, err := c.Reserve(ctx, req); errors.Is(err, ErrUnknownCircuit) || errors.Is(err, ErrUnavailable) {
		t.Fatalf("overbook matched wrong sentinel: %v", err)
	}
}

func TestUnavailableAndClosed(t *testing.T) {
	// Nothing listens here (immediate refusal on loopback).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := Dial(ctx, "127.0.0.1:1"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dial dead addr: %v, want ErrUnavailable", err)
	}
	srv := startDaemon(t)
	c := dialClient(t, srv.Addr())
	c.Close()
	c.Close() // idempotent
	if _, err := c.Topology(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v, want ErrClosed", err)
	}
}

func TestContextCancellation(t *testing.T) {
	srv := startDaemon(t)
	proxy, err := faultnet.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := dialClient(t, proxy.Addr())
	proxy.Stall()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = c.Topology(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled call under cancel: %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt", elapsed)
	}
	// A context deadline also bounds the call, as its own error.
	dctx, dcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer dcancel()
	if _, err := c.Topology(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call under deadline: %v, want DeadlineExceeded", err)
	}
}

func TestAutoReconnectAfterReset(t *testing.T) {
	srv := startDaemon(t)
	proxy, err := faultnet.NewProxy(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	c := dialClient(t, proxy.Addr())
	ctx := context.Background()
	if _, err := c.Topology(ctx); err != nil {
		t.Fatal(err)
	}
	// Kill every proxied connection: the pooled one is now stale. The
	// next call must transparently redial and succeed.
	proxy.Reset()
	if _, err := c.Topology(ctx); err != nil {
		t.Fatalf("call after reset: %v, want transparent reconnect", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	srv := startDaemon(t)
	hub := telemetry.NewHub()
	c := dialClient(t, srv.Addr(), WithTelemetry(hub))
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Topology(context.Background()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The telemetry counter saw every call (16 topology + the Dial hello
	// is counted only for explicit Now calls, not the handshake).
	var dump strings.Builder
	hub.Registry().WriteProm(&dump)
	if !strings.Contains(dump.String(), `vc_client_calls_total{op="topology",result="ok"} 16`) {
		t.Fatalf("metrics missing call counter:\n%s", dump.String())
	}
}

// TestDialRefusedHello: a peer that answers hello with a refusal is not
// an oscarsd daemon. Dial fails with an error wrapping ErrRejected and
// closes the connection it made.
func TestDialRefusedHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	closed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			closed <- err
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		if _, err := r.ReadBytes('\n'); err != nil {
			closed <- err
			return
		}
		conn.Write([]byte(`{"ok":false,"error":"unknown op \"hello\""}` + "\n"))
		// The client must hang up now: the next read sees EOF, not a
		// request or the read deadline.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err = r.ReadBytes('\n')
		closed <- err
	}()
	c, err := Dial(context.Background(), ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial accepted a peer that refused hello")
	}
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("Dial: %v, want ErrRejected", err)
	}
	if err := <-closed; !errors.Is(err, io.EOF) {
		t.Fatalf("peer saw %v after the refusal, want EOF (connection closed)", err)
	}
}
