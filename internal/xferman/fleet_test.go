package xferman

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gftpvc/internal/fleet"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
)

// fakeTelemetry serves the minimal scrape surface the fleet registry
// needs, reporting a fixed committed load.
func fakeTelemetry(t *testing.T, shapedBps float64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "gridftp_server_sessions_active 0\n")
		fmt.Fprintf(w, "gridftp_server_shaped_rate_bps %g\n", shapedBps)
	})
	mux.HandleFunc("/counters", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "[]")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestFleetManagedJobPlacesOnUnloadedReplica(t *testing.T) {
	r := rig.New(t)
	data := rig.Payload(3, 96<<10)
	// Two source replicas hold the same object; telemetry says replica 0
	// has nearly all its capacity promised away.
	var reps []fleet.Replica
	var srcs []*gridftp.Server
	for _, load := range []float64{9e8, 1e8} {
		s := r.Server(gridftp.Config{}, rig.Objects{"obj": data})
		srcs = append(srcs, s)
		reps = append(reps, fleet.Replica{
			Addr:         s.Addr(),
			TelemetryURL: fakeTelemetry(t, load).URL,
		})
	}
	dstStore := gridftp.NewMemStore()
	dst := r.Server(gridftp.Config{Store: dstStore})

	d, err := fleet.New(fleet.Config{
		Replicas:       reps,
		CapacityBps:    1e9,
		ScrapeInterval: time.Hour, // scraped once below; no background churn
		Staleness:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Registry().ScrapeNow(context.Background())

	m, err := New(2, WithFleet(d))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Src.Addr left empty: the fleet must fill it in.
	id, err := m.Submit(context.Background(), Job{
		Src:     Endpoint{User: "u", Pass: "p"},
		Dst:     ep(dst),
		SrcName: "obj", DstName: "out",
		Verify: true,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.Replica != srcs[1].Addr() {
		t.Errorf("Replica = %q, want the unloaded %q", res.Replica, srcs[1].Addr())
	}
	got, err := dstStore.Get("out")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("destination object wrong (err=%v, %d bytes)", err, len(got))
	}

	// A job that pins its source bypasses the fleet: the loaded replica
	// is used as asked and Result.Replica stays empty.
	id, err = m.Submit(context.Background(), Job{
		Src: ep(srcs[0]), Dst: ep(dst),
		SrcName: "obj", DstName: "out2",
	})
	if err != nil {
		t.Fatalf("Submit pinned: %v", err)
	}
	res, err = m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Succeeded {
		t.Fatalf("pinned job failed: %s", res.Err)
	}
	if res.Replica != "" {
		t.Errorf("pinned job Replica = %q, want empty", res.Replica)
	}
}

func TestSubmitWithoutFleetRequiresSrc(t *testing.T) {
	m, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	_, err = m.Submit(context.Background(), Job{
		Dst:     Endpoint{Addr: "y"},
		SrcName: "a", DstName: "b",
	})
	if err == nil {
		t.Fatal("Submit with empty Src.Addr and no fleet should fail")
	}
}
