package telemetry_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/gridftp"
	"gftpvc/internal/oscarsd"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/vc"
	"gftpvc/internal/vc/broker"
	"gftpvc/internal/xferman"
)

// promName is the application-metric naming convention the registry
// enforces; the lint below re-checks it against the live exposition so
// the convention cannot drift from what servers actually register.
var promName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// TestStackMetricsLint drives the whole stack — two GridFTP servers, a
// telemetry-enabled client, the xferman worker pool, and the oscarsd
// reservation daemon — over one hub, scrapes /metrics over HTTP, and
// lints the exposition: every family name follows the Prometheus
// convention, counters end in _total, and the stack yields at least 20
// distinct series.
func TestStackMetricsLint(t *testing.T) {
	hub := telemetry.NewHub()

	// GridFTP: one server per endpoint, both instrumented.
	newServer := func() *gridftp.Server {
		store := gridftp.NewMemStore()
		store.Put("obj.bin", make([]byte, 64<<10))
		srv, err := gridftp.Serve(gridftp.Config{
			Addr: "127.0.0.1:0", Store: store, Telemetry: hub,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	src, dst := newServer(), newServer()

	// Client path: one direct transfer with client-side telemetry.
	c, err := gridftp.Dial(src.Addr(), gridftp.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Login("u", "p"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RetrTo(context.Background(), "obj.bin", io.Discard); err != nil {
		t.Fatal(err)
	}
	c.Close()

	// oscarsd path: admit, reject, and cancel a reservation.
	osrv, err := oscarsd.Start(oscarsd.Config{
		Addr: "127.0.0.1:0", Scenario: "nersc-ornl",
		ReservableFraction: 0.5, Telemetry: hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { osrv.Close() })

	// Hybrid control plane: a vc client + session broker on the same
	// hub, brokering the xferman job below onto a reserved circuit.
	vcc, err := vc.Dial(context.Background(), osrv.Addr(), vc.WithTelemetry(hub))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vcc.Close() })
	bk, err := broker.New(vcc, broker.Config{
		Gap:        100 * time.Millisecond,
		SetupDelay: 10 * time.Millisecond,
		Route:      broker.StaticRoute("nersc-ornl-dtn-src", "nersc-ornl-dtn-dst"),
		Telemetry:  hub,
	})
	if err != nil {
		t.Fatal(err)
	}

	// xferman path: one managed third-party job through the pool,
	// dispatched through the broker (the 1 GiB hint qualifies the
	// session for a circuit; the object itself is small).
	m, err := xferman.New(1, xferman.WithTelemetry(hub), xferman.WithBroker(bk))
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(context.Background(), xferman.Job{
		Src:     xferman.Endpoint{Addr: src.Addr(), User: "u", Pass: "p"},
		Dst:     xferman.Endpoint{Addr: dst.Addr(), User: "u", Pass: "p"},
		SrcName: "obj.bin", DstName: "copy.bin",
		SizeHint: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Wait(context.Background(), id)
	if err != nil || res.Status != xferman.Succeeded {
		t.Fatalf("job result %+v, err %v", res, err)
	}
	if res.Circuit.Service != broker.ServiceVC {
		t.Fatalf("brokered job disposition %+v, want VC", res.Circuit)
	}
	m.Close()
	bk.Close()
	oc, err := net.Dial("tcp", osrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oc.Close() })
	obr := bufio.NewReader(oc)
	roundTrip := func(req oscarsd.Request) oscarsd.Response {
		t.Helper()
		data, _ := json.Marshal(req)
		if _, err := oc.Write(append(data, '\n')); err != nil {
			t.Fatal(err)
		}
		line, err := obr.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp oscarsd.Response
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	admit := roundTrip(oscarsd.Request{Op: oscarsd.OpReserve,
		Src: "nersc-ornl-dtn-src", Dst: "nersc-ornl-dtn-dst",
		RateBps: 1e9, Start: 100, End: 200})
	if !admit.OK {
		t.Fatalf("reserve rejected: %+v", admit)
	}
	if rej := roundTrip(oscarsd.Request{Op: oscarsd.OpReserve,
		Src: "nope", Dst: "nersc-ornl-dtn-dst",
		RateBps: 1e9, Start: 100, End: 200}); rej.OK {
		t.Fatal("reserve of unknown node admitted")
	}
	if cancel := roundTrip(oscarsd.Request{Op: oscarsd.OpCancel, ID: admit.ID}); !cancel.OK {
		t.Fatalf("cancel failed: %+v", cancel)
	}

	// Scrape the shared hub over HTTP and lint the exposition.
	ms, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	series := 0
	types := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		series++
	}
	if series < 20 {
		t.Fatalf("exposition has %d series, want >= 20:\n%s", series, body)
	}
	for name, kind := range types {
		if !promName.MatchString(name) {
			t.Errorf("metric %q violates the naming convention", name)
		}
		switch kind {
		case "counter":
			if !strings.HasSuffix(name, "_total") {
				t.Errorf("counter %q does not end in _total", name)
			}
		case "gauge":
			if strings.HasSuffix(name, "_total") {
				t.Errorf("gauge %q must not end in _total", name)
			}
		case "histogram":
			if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") &&
				!strings.HasSuffix(name, "_ratio") {
				t.Errorf("histogram %q should carry a unit suffix", name)
			}
		default:
			t.Errorf("metric %q has unexpected type %q", name, kind)
		}
	}

	// The stack must cover every subsystem, hybrid control plane included.
	for _, prefix := range []string{"gridftp_server_", "gridftp_client_",
		"xferman_", "oscarsd_", "vc_client_", "vc_broker_"} {
		found := false
		for name := range types {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* metrics in exposition", prefix)
		}
	}
}
