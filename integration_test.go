package gftpvc_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"gftpvc/internal/core"
	"gftpvc/internal/gridftp"
	"gftpvc/internal/rig"
	"gftpvc/internal/sessions"
	"gftpvc/internal/usagestats"
)

// TestLiveTransferAnalysisPipeline exercises the whole system end to end
// over real sockets: a GridFTP session of back-to-back transfers between
// two loopback servers produces usage records through the same logging
// path the paper's datasets came from; those records then flow through
// session grouping and the VC feasibility analysis unchanged.
func TestLiveTransferAnalysisPipeline(t *testing.T) {
	// A site-local log (keeps remote endpoints) and a central collector
	// (anonymizes them) — both sides of the paper's data-procurement
	// story.
	collector, err := usagestats.NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	r := rig.New(t)
	rng := rand.New(rand.NewSource(77))
	names := []string{"run1/a.nc", "run1/b.nc", "run1/c.nc", "run2/d.nc", "run2/e.nc"}
	objects := rig.Objects{}
	for _, name := range names {
		objects[name] = rig.Payload(rng.Int63(), 1<<20+rng.Intn(1<<20))
	}
	srv := r.Server(gridftp.Config{
		ServerHost: "dtn01.site-a.example", UsageAddr: collector.Addr(),
	}, objects)

	// One scripted session: five back-to-back retrievals over a single
	// control channel with 4 parallel streams.
	c := r.Login(srv.Addr())
	if err := c.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		var data bytes.Buffer
		if _, err := c.RetrTo(context.Background(), name, &data); err != nil {
			t.Fatalf("RETR %s: %v", name, err)
		}
		if !bytes.Equal(data.Bytes(), objects[name]) {
			t.Fatalf("payload corrupted for %s", name)
		}
	}

	// The server-side log feeds the analysis pipeline directly.
	records := srv.Records()
	if len(records) != len(names) {
		t.Fatalf("server logged %d records, want %d", len(records), len(names))
	}
	ss, err := sessions.Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 {
		t.Fatalf("grouped %d sessions, want 1 (back-to-back batch)", len(ss))
	}
	if ss[0].Count() != len(names) {
		t.Fatalf("session has %d transfers, want %d", ss[0].Count(), len(names))
	}

	ths := sessions.TransferThroughputsMbps(records)
	ref, err := core.ReferenceThroughputFromRecordsBps(ths)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.FeasibilityConfig{
		SetupDelay: time.Millisecond, OverheadFactor: 10, ReferenceThroughputBps: ref,
	}
	res, err := cfg.Analyze(ss)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sessions != 1 || res.Transfers != len(names) {
		t.Fatalf("feasibility saw %d sessions / %d transfers", res.Sessions, res.Transfers)
	}

	// The central collector received the same transfers, anonymized —
	// which is exactly why session analysis fails on that copy (the
	// paper's NERSC limitation).
	r.WaitFor("the collector to hold every record", func() bool { return len(collector.Records()) >= len(names) })
	anon := collector.Records()
	if len(anon) != len(names) {
		t.Fatalf("collector has %d records, want %d", len(anon), len(names))
	}
	if _, err := sessions.Group(anon, time.Minute); err == nil {
		t.Fatal("anonymized records must not be groupable")
	}
}

// TestLogFileRoundTripThroughAnalysis writes a live server's log to the
// wire format and reads it back, confirming the file format carries
// everything the analyses need.
func TestLogFileRoundTripThroughAnalysis(t *testing.T) {
	r := rig.New(t)
	srv := r.Server(gridftp.Config{}, rig.Objects{"x": rig.Payload(5, 256<<10)})
	if _, err := r.Login(srv.Addr()).RetrTo(context.Background(), "x", io.Discard); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := usagestats.WriteLog(&buf, srv.Records()); err != nil {
		t.Fatal(err)
	}
	parsed, err := usagestats.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 {
		t.Fatalf("parsed %d records", len(parsed))
	}
	// The wire format carries microsecond timestamps (as Globus logs do);
	// everything else must round-trip exactly.
	orig := srv.Records()[0]
	got := parsed[0]
	if d := got.Start.Sub(orig.Start); d < -time.Microsecond || d > time.Microsecond {
		t.Fatalf("start time drifted by %v", d)
	}
	if d := got.DurationSec - orig.DurationSec; d < -1e-6 || d > 1e-6 {
		t.Fatalf("duration drifted by %v", d)
	}
	got.Start, got.DurationSec = orig.Start, orig.DurationSec
	if got != orig {
		t.Fatal("log round trip altered the record")
	}
	if _, err := sessions.Group(parsed, time.Minute); err != nil {
		t.Fatalf("parsed records not analyzable: %v", err)
	}
}
