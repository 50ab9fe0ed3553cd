package gridftp

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/snmp"
	"gftpvc/internal/telemetry"
	"gftpvc/internal/usagestats"
)

// usagestatsRoundTrip marshals and re-parses one record through the
// key=value log format.
func usagestatsRoundTrip(r usagestats.Record) (usagestats.Record, error) {
	return usagestats.Unmarshal(r.Marshal())
}

// findSpan returns the newest completed span with the given op.
func findSpan(t *testing.T, hub *telemetry.Hub, op string) telemetry.SpanSnapshot {
	t.Helper()
	snaps := hub.Spans().Snapshot()
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i].Op == op {
			return snaps[i]
		}
	}
	t.Fatalf("no completed %q span; have %+v", op, snaps)
	return telemetry.SpanSnapshot{}
}

// waitNoActiveSpans polls until every span has ended — the server's
// handler may still be closing its span when the client returns.
func waitNoActiveSpans(t *testing.T, hub *telemetry.Hub) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for hub.Spans().Active() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans still active", hub.Spans().Active())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// phaseSum asserts the span's phase durations cover its wall time: the
// phases are contiguous by construction, so the sum must match the
// duration to float precision, well inside the 5% acceptance bound.
func phaseSum(t *testing.T, s telemetry.SpanSnapshot) {
	t.Helper()
	sum := 0.0
	for _, ph := range s.Phases {
		sum += ph.DurationSec
	}
	if math.Abs(sum-s.DurationSec) > 0.05*s.DurationSec+1e-9 {
		t.Errorf("span %s: phase durations sum to %v, wall time %v (phases %+v)",
			s.Op, sum, s.DurationSec, s.Phases)
	}
}

// TestTransferSpanPhases: a successful RETR must leave one completed
// server span walking data_setup -> stream -> teardown whose phase
// durations sum to its wall time and whose byte count covers the
// payload (wire bytes include MODE E headers).
func TestTransferSpanPhases(t *testing.T) {
	hub := telemetry.NewHub()
	store := NewMemStore()
	payload := randomPayload(256 << 10)
	store.Put("x", payload)
	s := startServer(t, Config{Store: store, Telemetry: hub})
	c := login(t, s.Addr())
	if _, _, err := c.Retr("x"); err != nil {
		t.Fatal(err)
	}
	waitNoActiveSpans(t, hub)
	span := findSpan(t, hub, "retr")
	if span.Err != "" {
		t.Fatalf("span error = %q", span.Err)
	}
	want := []telemetry.Phase{telemetry.PhaseSetup, telemetry.PhaseStream, telemetry.PhaseTeardown}
	if len(span.Phases) != len(want) {
		t.Fatalf("phases = %+v, want %v", span.Phases, want)
	}
	for i, ph := range span.Phases {
		if ph.Name != want[i] {
			t.Errorf("phase %d = %s, want %s", i, ph.Name, want[i])
		}
	}
	phaseSum(t, span)
	if span.Bytes < int64(len(payload)) {
		t.Errorf("span bytes = %d, want >= %d", span.Bytes, len(payload))
	}
	if span.Streams != 1 {
		t.Errorf("span streams = %d, want 1", span.Streams)
	}
}

// TestSpanClosedUnderFaults re-runs two PR-2 fault-matrix cells — a
// connection reset mid-block and a stalled data accept — and asserts
// the observability contract: no span leaks (Active returns to 0), the
// failed transfer's span carries the error and terminates in the
// zero-length "error" phase, and its phase durations still sum to its
// wall time.
func TestSpanClosedUnderFaults(t *testing.T) {
	faults := []struct {
		name    string
		tracker func() *faultnet.Tracker
	}{
		{"reset-mid-block", func() *faultnet.Tracker {
			return &faultnet.Tracker{PlanFor: func(int) *faultnet.ConnPlan {
				return &faultnet.ConnPlan{ResetReadAfter: 6000, ResetWriteAfter: 6000}
			}}
		}},
		{"accept-stall", func() *faultnet.Tracker {
			return &faultnet.Tracker{AcceptDelay: fmStall}
		}},
	}
	for _, fault := range faults {
		fault := fault
		t.Run(fault.name, func(t *testing.T) {
			hub := telemetry.NewHub()
			store := NewMemStore()
			store.Put("x", randomPayload(256<<10))
			s := startServer(t, Config{Store: store, Stripes: 2, BlockSize: 4 << 10,
				AcceptTimeout: fmAccept, DataTimeout: fmData,
				DataListen: fault.tracker().Listen, Telemetry: hub})
			c := fmLogin(t, s.Addr())
			if _, _, err := c.Retr("x"); err == nil {
				t.Fatal("Retr succeeded under injected fault")
			}
			waitNoActiveSpans(t, hub)
			span := findSpan(t, hub, "retr")
			if span.Err == "" {
				t.Fatal("failed transfer's span has no error")
			}
			last := span.Phases[len(span.Phases)-1]
			if last.Name != telemetry.PhaseError || last.DurationSec != 0 {
				t.Errorf("terminal phase = %+v, want zero-length error", last)
			}
			phaseSum(t, span)
		})
	}
}

// TestLiveCountersFeedSNMPPipeline is the golden round-trip: the live
// byte counters a telemetry-enabled server produces must feed the
// existing internal/snmp correlation code — Eq. 1 OverlapBytes and the
// Table XI CorrelateTotal — with no adapter beyond copying fields.
// Sub-second bins stand in for the production 30-second cadence.
func TestLiveCountersFeedSNMPPipeline(t *testing.T) {
	hub := telemetry.NewHubConfig(0.05, 0)
	store := NewMemStore()
	// Varied object sizes: the correlation needs variance across
	// transfers (identical sizes would zero the Pearson denominator).
	for i := 0; i < 10; i++ {
		store.Put(fmt.Sprintf("obj%d", i), randomPayload((i+1)*8<<10))
	}
	s := startServer(t, Config{Store: store, Telemetry: hub})
	c := login(t, s.Addr())
	const transfers = 100
	for i := 0; i < transfers; i++ {
		if _, _, err := c.Retr(fmt.Sprintf("obj%d", i%10)); err != nil {
			t.Fatalf("transfer %d: %v", i, err)
		}
		if i%10 == 9 {
			time.Sleep(20 * time.Millisecond) // spread across bins
		}
	}
	waitNoActiveSpans(t, hub)

	// Spans are the live analogue of the usage log: one TransferObs each,
	// on the same epoch clock as the counter bins.
	var obs []snmp.TransferObs
	var spanBytes float64
	for _, sp := range hub.Spans().Snapshot() {
		if sp.Op != "retr" || sp.Err != "" {
			continue
		}
		obs = append(obs, snmp.TransferObs{
			StartSec: sp.StartSec, DurSec: sp.DurationSec, Bytes: float64(sp.Bytes),
		})
		spanBytes += float64(sp.Bytes)
	}
	if len(obs) != transfers {
		t.Fatalf("got %d observations, want %d", len(obs), transfers)
	}

	// The counter snapshot drops verbatim into snmp.Counter — this
	// literal is the whole "adapter".
	origin, binSec, bytes := hub.LiveCounter("stripe0").Snapshot()
	ctr := snmp.Counter{Link: "stripe0", Origin: origin, BinSec: binSec, Bytes: bytes}

	// Eq. 1 over the full collection window must account for every wire
	// byte the spans saw (both count the same instrumentedConn writes).
	total, err := ctr.OverlapBytes(0, float64(len(bytes))*binSec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-spanBytes) > 1e-6 {
		t.Fatalf("Eq. 1 over full window = %v bytes, spans saw %v", total, spanBytes)
	}
	// Every transfer interval must resolve against the series.
	for i, o := range obs {
		if _, err := ctr.OverlapBytes(o.StartSec, o.StartSec+o.DurSec); err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
	}
	// Table XI runs unmodified on the live series.
	row, err := ctr.CorrelateTotal(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(row.All) || row.All < -1 || row.All > 1 {
		t.Fatalf("correlation = %v, want a value in [-1, 1]", row.All)
	}
}

// TestFailedTransfersLogged: failed and aborted transfers must emit
// usage records carrying the final reply code and the partial byte
// count — the satellite bugfix for the success-only logger.
func TestFailedTransfersLogged(t *testing.T) {
	store := NewMemStore()
	store.Put("x", randomPayload(16<<10))
	s := startServer(t, Config{Store: store, AcceptTimeout: 200 * time.Millisecond})
	rs := rawDial(t, s.Addr())
	rs.login(t)

	// 550: object does not exist.
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "RETR missing.bin", "550")
	// 425: transfer announced, data connection never arrives.
	rs.cmd(t, "PASV", "227")
	rs.cmd(t, "STOR up.bin", "150")
	rs.expect(t, "425")
	// Success for contrast: the historical record shape (Code 0).
	c := login(t, s.Addr())
	if _, _, err := c.Retr("x"); err != nil {
		t.Fatal(err)
	}

	recs := s.Records()
	byCode := map[int]int{}
	for _, r := range recs {
		byCode[r.Code]++
		if r.Failed() {
			if r.SizeBytes < 0 {
				t.Errorf("failed record has negative partial size: %+v", r)
			}
			if err := r.Validate(); err != nil {
				t.Errorf("failed record invalid: %v (%+v)", err, r)
			}
			// Round-trip through the log format preserves the code.
			back, err := usagestatsRoundTrip(r)
			if err != nil {
				t.Errorf("round-trip: %v", err)
			} else if back.Code != r.Code {
				t.Errorf("round-trip code = %d, want %d", back.Code, r.Code)
			}
		}
	}
	if byCode[550] != 1 || byCode[425] != 1 || byCode[0] != 1 {
		t.Fatalf("record codes = %v, want one each of 550, 425, 0", byCode)
	}
}

// TestSmallTransferAllocBudget is the tier-1 guard on the fixed cost of
// a small transfer: 64 KiB third-party copies between two servers with
// hubs stay under 88 KiB allocated apiece. The loop keeps one pair, so
// every copy after the first runs over the cached data channel and its
// frame buffers: what is left is the stored object and some 6 KiB of
// control, span and wrapper state (71.6 KB measured; the budget is about
// 1.25x that). One more 64 KiB buffer per copy fails it, as
// per-transfer channels do (221.9 KB measured before the cache) and an
// eagerly made 8 MiB window did (near 10 MB). Resolving an existing
// one-label counter — some twenty times per job across the servers and
// the client — costs no more than its label key.
func TestSmallTransferAllocBudget(t *testing.T) {
	const transfers, size, budget = 200, 64 << 10, 88 << 10
	srcStore := NewMemStore()
	want := randomPayload(size)
	srcStore.Put("src.bin", want)
	dstStore := NewMemStore()
	src := startServer(t, Config{Store: srcStore, Telemetry: telemetry.NewHub()})
	dst := startServer(t, Config{Store: dstStore, Telemetry: telemetry.NewHub()})
	cSrc, cDst := login(t, src.Addr()), login(t, dst.Addr())
	copyOnce := func() {
		t.Helper()
		if err := ThirdParty(cSrc, cDst, "src.bin", "dst.bin"); err != nil {
			t.Fatal(err)
		}
	}
	copyOnce() // first use registers metric families and grows the rings
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < transfers; i++ {
		copyOnce()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / transfers; per > budget {
		t.Errorf("a %d-byte third-party transfer allocates %d bytes, budget %d", size, per, budget)
	}
	if got, err := dstStore.Get("dst.bin"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("third-party payload corrupted (err %v)", err)
	}

	hub := telemetry.NewHub()
	hit := func() { hub.Counter("alloc_guard_total", "h", telemetry.L("op", "retr")).Inc() }
	hit()
	if n := testing.AllocsPerRun(100, hit); n > 2 {
		t.Errorf("a one-label Hub.Counter hit allocates %.0f times, budget 2", n)
	}
}
