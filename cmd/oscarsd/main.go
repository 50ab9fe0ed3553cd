// Command oscarsd runs an OSCARS-style reservation service as a real TCP
// server speaking newline-delimited JSON. It owns a bandwidth ledger over
// one of the reference path topologies and admits advance reservations
// with constrained path computation, exactly the scheduler role the
// paper's IDC plays.
//
// Protocol (one JSON object per line; times are seconds on the service's
// own clock, which starts at 0):
//
//	{"op":"reserve","src":"...","dst":"...","rate_bps":1e9,"start":0,"end":600}
//	  -> {"ok":true,"id":1,"path":["a->b","b->c"],"src":"...","dst":"..."}
//	{"op":"modify","id":1,"rate_bps":2e9,"start":0,"end":900}
//	  -> {"ok":true,"id":1,"path":[...]} (atomic re-book; the old booking
//	     survives on rejection)
//	{"op":"cancel","id":1}        -> {"ok":true,"id":1}
//	{"op":"available","src":"...","dst":"...","rate_bps":1e9,"start":0,"end":600}
//	  -> {"ok":true,"path":[...]} or {"ok":false,"code":"no-path","error":"..."}
//	{"op":"topology"}             -> {"ok":true,"nodes":[...],"now":12.5}
//	{"op":"hello"}                -> {"ok":true,"now":12.5}
//
// A client sends hello as its handshake when it connects, and again
// whenever it only needs the service clock. Every failure
// response carries a machine-readable "code" field ("bad-request",
// "no-path", "rejected", "unknown-circuit", "unknown-op", "malformed")
// alongside the human-readable "error" message; clients classify
// failures by the code. Unknown ops always get a structured
// {"ok":false,"code":"unknown-op",...} reply rather than a dropped
// connection.
//
// internal/vc wraps this wire protocol in a typed Go client, and
// cmd/vcreq is the command-line front end.
//
// Usage:
//
//	oscarsd -addr 127.0.0.1:7654 -scenario nersc-ornl -reservable 0.8
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7654", "listen address")
		scenario   = flag.String("scenario", "nersc-ornl", "topology: nersc-ornl | nersc-anl | ncar-nics | slac-bnl")
		reservable = flag.Float64("reservable", 0.8, "fraction of link capacity reservable for circuits")
		metrics    = flag.String("metrics-addr", "", "telemetry HTTP listen address serving /metrics and /healthz (optional)")
	)
	flag.Parse()
	cfg := oscarsd.Config{
		Addr:               *addr,
		Scenario:           *scenario,
		ReservableFraction: *reservable,
	}
	var hub *telemetry.Hub
	if *metrics != "" {
		hub = telemetry.NewHub()
		hub.SetProcessName("oscarsd")
		ms, err := hub.ListenAndServe(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oscarsd: metrics: %v\n", err)
			os.Exit(1)
		}
		defer ms.Close()
		cfg.Telemetry = hub
		fmt.Fprintf(os.Stderr, "oscarsd: telemetry on http://%s/metrics\n", ms.Addr())
	}
	srv, err := oscarsd.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oscarsd: %v\n", err)
		os.Exit(1)
	}
	if hub != nil {
		ledger := srv.Addr()
		hub.RegisterHealth("ledger", func() error {
			c, err := net.DialTimeout("tcp", ledger, 2*time.Second)
			if err != nil {
				return err
			}
			return c.Close()
		})
	}
	fmt.Printf("oscarsd: serving %s topology on %s\n", *scenario, srv.Addr())
	srv.Wait()
}
