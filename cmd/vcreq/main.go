// Command vcreq is the client for the oscarsd reservation service: it
// requests, probes, and cancels virtual circuits, playing the role of
// the data-transfer application that asks the IDC for a circuit before
// starting a GridFTP session. It speaks the typed internal/vc client
// API, which refuses a peer that does not answer its hello handshake.
//
// Usage:
//
//	vcreq -addr 127.0.0.1:7654 -op topology
//	vcreq -addr 127.0.0.1:7654 -op reserve -src nersc-ornl-dtn-src \
//	      -dst nersc-ornl-dtn-dst -rate 1e9 -start 60 -end 660
//	vcreq -addr 127.0.0.1:7654 -op cancel -id 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gftpvc/internal/vc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := newFlags(args, stderr)
	if fs == nil {
		return 2
	}
	ctx := context.Background()
	client, err := vc.Dial(ctx, fs.addr)
	if err != nil {
		return fail(stderr, err)
	}
	defer client.Close()

	ask := vc.ReserveRequest{
		Src: fs.src, Dst: fs.dst,
		RateBps: fs.rate, Start: fs.start, End: fs.end,
	}
	switch fs.op {
	case "reserve":
		res, err := client.Reserve(ctx, ask)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "circuit %d admitted: %s\n", res.ID, strings.Join(res.Path, " "))
	case "modify":
		res, err := client.Modify(ctx, vc.ModifyRequest{
			ID: fs.id, RateBps: fs.rate, Start: fs.start, End: fs.end,
		})
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "circuit %d modified: %s\n", res.ID, strings.Join(res.Path, " "))
	case "available":
		path, err := client.Available(ctx, ask)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "feasible path: %s\n", strings.Join(path, " "))
	case "cancel":
		if err := client.Cancel(ctx, fs.id); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "circuit %d cancelled\n", fs.id)
	case "topology":
		top, err := client.Topology(ctx)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "service clock: %.1fs\nnodes:\n", top.Now)
		for _, n := range top.Nodes {
			fmt.Fprintln(stdout, "  "+n)
		}
	default:
		// The daemon would refuse this op; report the same message it
		// would send without burning a round trip.
		fmt.Fprintf(stderr, "vcreq: request failed: unknown op %q\n", fs.op)
		return 1
	}
	return 0
}

// fail renders an error exactly as the original line-protocol client
// did: server rejections as "request failed: <daemon message>",
// transport problems verbatim.
func fail(stderr io.Writer, err error) int {
	var se *vc.ServerError
	if errors.As(err, &se) {
		fmt.Fprintf(stderr, "vcreq: request failed: %s\n", se.Msg)
	} else {
		fmt.Fprintf(stderr, "vcreq: %v\n", err)
	}
	return 1
}

type flags struct {
	addr, op, src, dst string
	rate, start, end   float64
	id                 int64
}

func newFlags(args []string, stderr io.Writer) *flags {
	var f flags
	fs := flag.NewFlagSet("vcreq", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&f.addr, "addr", "127.0.0.1:7654", "oscarsd address")
	fs.StringVar(&f.op, "op", "topology", "operation: reserve | modify | cancel | available | topology")
	fs.StringVar(&f.src, "src", "", "source node")
	fs.StringVar(&f.dst, "dst", "", "destination node")
	fs.Float64Var(&f.rate, "rate", 0, "rate in bits/second")
	fs.Float64Var(&f.start, "start", 0, "start time (service seconds)")
	fs.Float64Var(&f.end, "end", 0, "end time (service seconds)")
	fs.Int64Var(&f.id, "id", 0, "circuit id (for cancel)")
	if err := fs.Parse(args); err != nil {
		return nil
	}
	return &f
}
