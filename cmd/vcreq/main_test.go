package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"gftpvc/internal/oscarsd"
)

// vcreqOut runs the command against addr and returns stdout, stderr,
// and the exit code.
func vcreqOut(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf strings.Builder
	code := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

// fakeDaemon answers each op with fixed replies, the way a current
// oscarsd does: hello with its clock, failures with a structured code.
func fakeDaemon(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				enc := json.NewEncoder(conn)
				for sc.Scan() {
					var req map[string]any
					if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
						enc.Encode(map[string]any{"ok": false,
							"code": "malformed", "error": "malformed request"})
						continue
					}
					var resp map[string]any
					switch op, _ := req["op"].(string); op {
					case "hello":
						resp = map[string]any{"ok": true, "now": 42.25}
					case "topology":
						resp = map[string]any{"ok": true,
							"nodes": []string{"alpha", "beta"}, "now": 42.25}
					case "reserve":
						resp = map[string]any{"ok": true, "id": 7,
							"path": []string{"alpha->beta", "beta->gamma"}}
					case "modify":
						resp = map[string]any{"ok": true, "id": 7,
							"path": []string{"alpha->beta"}}
					case "available":
						resp = map[string]any{"ok": true,
							"path": []string{"alpha->beta", "beta->gamma"}}
					case "cancel":
						resp = map[string]any{"ok": true, "id": req["id"]}
					default:
						resp = map[string]any{"ok": false, "code": "unknown-op",
							"error": fmt.Sprintf("unknown op %q", op)}
					}
					if err := enc.Encode(resp); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestOutputCompatAgainstSeedServer pins the success-path output of all
// five operations byte for byte: the lines the original line-protocol
// client printed, here against a fake daemon with fixed replies.
func TestOutputCompatAgainstSeedServer(t *testing.T) {
	addr := fakeDaemon(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"topology", []string{"-addr", addr, "-op", "topology"},
			"service clock: 42.2s\nnodes:\n  alpha\n  beta\n"},
		{"reserve", []string{"-addr", addr, "-op", "reserve",
			"-src", "alpha", "-dst", "beta", "-rate", "1e9", "-start", "60", "-end", "660"},
			"circuit 7 admitted: alpha->beta beta->gamma\n"},
		{"modify", []string{"-addr", addr, "-op", "modify",
			"-id", "7", "-rate", "2e9", "-start", "60", "-end", "960"},
			"circuit 7 modified: alpha->beta\n"},
		{"available", []string{"-addr", addr, "-op", "available",
			"-src", "alpha", "-dst", "beta", "-rate", "1e9", "-start", "60", "-end", "660"},
			"feasible path: alpha->beta beta->gamma\n"},
		{"cancel", []string{"-addr", addr, "-op", "cancel", "-id", "7"},
			"circuit 7 cancelled\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, errOut, code := vcreqOut(t, tc.args...)
			if code != 0 || errOut != "" {
				t.Fatalf("exit %d, stderr %q", code, errOut)
			}
			if out != tc.want {
				t.Errorf("stdout:\n%q\nwant:\n%q", out, tc.want)
			}
		})
	}
}

// TestOutputAgainstLiveDaemon exercises the full lifecycle against the
// real oscarsd and pins the reject and unknown-op error formats.
func TestOutputAgainstLiveDaemon(t *testing.T) {
	srv, err := oscarsd.Start(oscarsd.Config{
		Addr: "127.0.0.1:0", Scenario: "nersc-ornl", ReservableFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr()

	out, _, code := vcreqOut(t, "-addr", addr, "-op", "topology")
	if code != 0 || !strings.HasPrefix(out, "service clock: ") ||
		!strings.Contains(out, "\nnodes:\n  ") {
		t.Fatalf("topology output %q (exit %d)", out, code)
	}

	reserveArgs := []string{"-addr", addr, "-op", "reserve",
		"-src", "nersc-ornl-dtn-src", "-dst", "nersc-ornl-dtn-dst",
		"-rate", "4e9", "-start", "100", "-end", "200"}
	out, _, code = vcreqOut(t, reserveArgs...)
	if code != 0 || !strings.HasPrefix(out, "circuit 1 admitted: ") {
		t.Fatalf("reserve output %q (exit %d)", out, code)
	}

	// Overbooked: rejection must surface the daemon's own message under
	// the original "request failed" prefix, on stderr, exit 1.
	_, errOut, code := vcreqOut(t, reserveArgs...)
	if code != 1 || !strings.HasPrefix(errOut, "vcreq: request failed: ") {
		t.Fatalf("reject stderr %q (exit %d)", errOut, code)
	}

	out, _, code = vcreqOut(t, "-addr", addr, "-op", "modify",
		"-id", "1", "-rate", "1e9", "-start", "100", "-end", "300")
	if code != 0 || !strings.HasPrefix(out, "circuit 1 modified: ") {
		t.Fatalf("modify output %q (exit %d)", out, code)
	}
	out, _, code = vcreqOut(t, "-addr", addr, "-op", "available",
		"-src", "nersc-ornl-dtn-src", "-dst", "nersc-ornl-dtn-dst",
		"-rate", "1e9", "-start", "100", "-end", "200")
	if code != 0 || !strings.HasPrefix(out, "feasible path: ") {
		t.Fatalf("available output %q (exit %d)", out, code)
	}
	out, _, code = vcreqOut(t, "-addr", addr, "-op", "cancel", "-id", "1")
	if code != 0 || out != "circuit 1 cancelled\n" {
		t.Fatalf("cancel output %q (exit %d)", out, code)
	}

	_, errOut, code = vcreqOut(t, "-addr", addr, "-op", "defrag")
	if code != 1 || errOut != "vcreq: request failed: unknown op \"defrag\"\n" {
		t.Fatalf("unknown op stderr %q (exit %d)", errOut, code)
	}

	// Transport failure keeps the bare "vcreq:" prefix.
	_, errOut, code = vcreqOut(t, "-addr", "127.0.0.1:1", "-op", "topology")
	if code != 1 || !strings.HasPrefix(errOut, "vcreq: ") ||
		strings.HasPrefix(errOut, "vcreq: request failed") {
		t.Fatalf("transport stderr %q (exit %d)", errOut, code)
	}
}
