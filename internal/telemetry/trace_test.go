package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceContextWireToken(t *testing.T) {
	id, sid := NewTraceID(), NewSpanID()
	if len(id) != 16 || len(sid) != 8 {
		t.Fatalf("minted ids %q / %q", id, sid)
	}
	for _, tc := range []TraceContext{
		{TraceID: id},
		{TraceID: id, ParentSID: sid},
	} {
		got, err := ParseTraceToken(tc.WireToken())
		if err != nil {
			t.Fatalf("round trip %q: %v", tc.WireToken(), err)
		}
		if got != tc {
			t.Fatalf("round trip %q: got %+v want %+v", tc.WireToken(), got, tc)
		}
	}
	for _, bad := range []string{"", "xyz", "0123", strings.Repeat("g", 16),
		id + "-", id + "-zzzzzzzz", id + "-" + id} {
		if _, err := ParseTraceToken(bad); err == nil {
			t.Errorf("ParseTraceToken(%q) accepted", bad)
		}
	}
}

func TestSpanTraceTagging(t *testing.T) {
	log := NewSpanLog(time.Now(), 0)
	sp := log.Start("retr", "x.bin", PhaseSetup)
	sid := sp.SetTrace("00112233445566aa", "deadbeef")
	if !isHex(sid, 8) {
		t.Fatalf("minted sid %q", sid)
	}
	if again := sp.SetTrace("00112233445566aa", "deadbeef"); again != sid {
		t.Fatalf("re-tag changed sid: %q -> %q", sid, again)
	}
	sp.End(nil)
	got := log.ByTrace("00112233445566aa")
	if len(got) != 1 {
		t.Fatalf("ByTrace: %d spans", len(got))
	}
	if got[0].TraceID != "00112233445566aa" || got[0].SID != sid || got[0].ParentSID != "deadbeef" {
		t.Fatalf("snapshot trace fields: %+v", got[0])
	}
	if log.ByTrace("ffffffffffffffff") != nil {
		t.Fatal("ByTrace matched a foreign trace")
	}
}

func TestSpanTimeline(t *testing.T) {
	log := NewSpanLog(time.Now(), 0)
	sp := log.Start("retr", "x.bin", PhaseStream)
	sp.AddBytes(100) // bin 0
	time.Sleep(120 * time.Millisecond)
	sp.AddBytes(50) // bin 1+
	sp.End(nil)
	snap := log.Snapshot()[0]
	if snap.TimelineBinMS != 100 {
		t.Fatalf("bin width %d ms", snap.TimelineBinMS)
	}
	if len(snap.TimelineBytes) < 2 || snap.TimelineBytes[0] != 100 {
		t.Fatalf("timeline %v", snap.TimelineBytes)
	}
	var sum int64
	for _, b := range snap.TimelineBytes {
		sum += b
	}
	if sum != snap.Bytes || sum != 150 {
		t.Fatalf("timeline sums to %d, bytes %d", sum, snap.Bytes)
	}
}

func TestEventLogRing(t *testing.T) {
	log := NewEventLog(time.Now(), 4)
	for i := 0; i < 10; i++ {
		trace := ""
		if i%2 == 0 {
			trace = "00112233445566aa"
		}
		log.Add(trace, "kind", fmt.Sprintf("ev%d", i))
	}
	evs := log.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("ring kept %d events", len(evs))
	}
	if evs[0].Detail != "ev6" || evs[3].Detail != "ev9" || evs[3].Seq != 10 {
		t.Fatalf("ring contents: %+v", evs)
	}
	byTrace := log.ByTrace("00112233445566aa")
	if len(byTrace) != 2 || byTrace[0].Detail != "ev6" || byTrace[1].Detail != "ev8" {
		t.Fatalf("ByTrace: %+v", byTrace)
	}
}

// TestEventLogRingWraps is TestSpanRingWraps for the flight recorder:
// three laps of the ring, Snapshot and ByTrace oldest-first with
// contiguous Seq at every head position.
func TestEventLogRingWraps(t *testing.T) {
	const capacity = 5
	log := NewEventLog(time.Now(), capacity)
	for n := 1; n <= 3*capacity; n++ {
		trace := ""
		if n%2 == 0 {
			trace = "00112233445566aa"
		}
		log.Add(trace, "kind", fmt.Sprintf("ev%d", n))
		evs := log.Snapshot()
		if want := min(n, capacity); len(evs) != want {
			t.Fatalf("after %d events the ring holds %d, want %d", n, len(evs), want)
		}
		var traced []uint64
		for i, e := range evs {
			want := uint64(n - len(evs) + 1 + i)
			if e.Seq != want || e.Detail != fmt.Sprintf("ev%d", want) {
				t.Fatalf("after %d events Snapshot[%d] = seq %d %q, want seq %d", n, i, e.Seq, e.Detail, want)
			}
			if e.Seq%2 == 0 {
				traced = append(traced, e.Seq)
			}
		}
		byTrace := log.ByTrace("00112233445566aa")
		if len(byTrace) != len(traced) {
			t.Fatalf("after %d events ByTrace holds %d, want %d", n, len(byTrace), len(traced))
		}
		for i, e := range byTrace {
			if e.Seq != traced[i] {
				t.Fatalf("after %d events ByTrace[%d].Seq = %d, want %d", n, i, e.Seq, traced[i])
			}
		}
	}
}

func TestHealthzComponents(t *testing.T) {
	hub := NewHub()
	hub.RegisterHealth("store", func() error { return nil })
	ms, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	get := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := get(); code != 200 || body["status"] != "ok" {
		t.Fatalf("healthy: %d %v", code, body)
	}
	hub.RegisterHealth("broker", func() error { return errors.New("daemon unreachable") })
	code, body := get()
	if code != http.StatusServiceUnavailable || body["status"] != "degraded" {
		t.Fatalf("degraded: %d %v", code, body)
	}
	comps := body["components"].(map[string]any)
	if comps["store"] != "ok" || comps["broker"] != "daemon unreachable" {
		t.Fatalf("components: %v", comps)
	}
}

// TestTraceEndpointStitching runs two hubs as two telemetry processes,
// tags parent/child spans across them, and asserts /trace/<id> on the
// parent stitches a two-process tree whose per-process phases each sum
// to that span's wall time — PR 3's invariant carried across the wire.
func TestTraceEndpointStitching(t *testing.T) {
	parent, child := NewHub(), NewHub()
	parent.SetProcessName("xferman")
	child.SetProcessName("gftpd")
	cms, err := child.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cms.Close() })
	pms, err := parent.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pms.Close() })
	parent.AddTracePeer("gftpd", "http://"+cms.Addr())

	trace := NewTraceID()
	root := parent.Span("job", "x.bin", PhaseSetup)
	rootSID := root.SetTrace(trace, "")
	parent.Event(trace, "job_start", "x.bin")

	remote := child.Span("retr", "x.bin", PhaseSetup)
	remote.SetTrace(trace, rootSID)
	child.Event(trace, "trid_bound", trace)
	remote.Phase(PhaseStream)
	time.Sleep(10 * time.Millisecond)
	remote.End(nil)
	root.End(nil)

	resp, err := http.Get("http://" + pms.Addr() + "/trace/" + trace)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep TraceReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.TraceID != trace || len(rep.Processes) != 2 {
		t.Fatalf("report: trace %q, %d processes", rep.TraceID, len(rep.Processes))
	}
	for _, loc := range rep.Processes {
		if loc.Err != "" {
			t.Fatalf("process %s: %s", loc.Process, loc.Err)
		}
		if len(loc.Spans) != 1 || len(loc.Events) != 1 {
			t.Fatalf("process %s: %d spans %d events", loc.Process, len(loc.Spans), len(loc.Events))
		}
	}
	if len(rep.Tree) != 1 || rep.Tree[0].Process != "xferman" {
		t.Fatalf("tree roots: %+v", rep.Tree)
	}
	kids := rep.Tree[0].Children
	if len(kids) != 1 || kids[0].Process != "gftpd" || kids[0].Span.Op != "retr" {
		t.Fatalf("tree children: %+v", kids)
	}
	// The stitched spans keep the per-process invariant: phase durations
	// sum exactly to each span's wall time.
	for _, n := range []*TraceNode{rep.Tree[0], kids[0]} {
		var sum float64
		for _, ph := range n.Span.Phases {
			sum += ph.DurationSec
		}
		if math.Abs(sum-n.Span.DurationSec) > 1e-9 {
			t.Fatalf("%s/%s: phases sum %.12f, wall %.12f", n.Process, n.Span.Op, sum, n.Span.DurationSec)
		}
	}

	// Local view stays single-process.
	resp2, err := http.Get("http://" + pms.Addr() + "/trace/" + trace + "?local=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var loc TraceLocal
	if err := json.NewDecoder(resp2.Body).Decode(&loc); err != nil {
		t.Fatal(err)
	}
	if loc.Process != "xferman" || len(loc.Spans) != 1 {
		t.Fatalf("local view: %+v", loc)
	}
}

func TestTracePeerUnreachable(t *testing.T) {
	hub := NewHub()
	hub.SetProcessName("xferman")
	hub.AddTracePeer("gone", "http://127.0.0.1:1") // nothing listens here
	trace := NewTraceID()
	hub.Span("job", "x", PhaseSetup).SetTrace(trace, "")
	rep := hub.stitchedTrace(trace)
	if len(rep.Processes) != 2 {
		t.Fatalf("%d processes", len(rep.Processes))
	}
	var sawErr bool
	for _, loc := range rep.Processes {
		if loc.Process == "gone" && loc.Err != "" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("unreachable peer did not surface an error entry")
	}
}

// TestConcurrentScrapesInFlight scrapes /spans, /counters, and /events
// over HTTP while transfer-shaped goroutines mutate spans, live
// counters, and the event ring — the overlap a live scrape hits, run
// under -race in the tier-1 matrix.
func TestConcurrentScrapesInFlight(t *testing.T) {
	hub := NewHubConfig(0.05, 64)
	ms, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := hub.Span("retr", fmt.Sprintf("obj%d.bin", i), PhaseSetup)
				sp.SetTrace(NewTraceID(), "")
				sp.Phase(PhaseStream)
				sp.AddBytes(int64(1 + j%4096))
				hub.LiveCounter(fmt.Sprintf("stripe%d", i)).Add(int64(j % 512))
				hub.Event("", "pool_hit", "addr")
				sp.End(nil)
			}
		}(i)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 25; i++ {
		for _, path := range []string{"/spans", "/counters", "/events"} {
			resp, err := client.Get("http://" + ms.Addr() + path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("GET %s: %d", path, resp.StatusCode)
			}
		}
	}
	close(stop)
	wg.Wait()
	// One final decode to check the JSON stayed well-formed under load.
	resp, err := client.Get("http://" + ms.Addr() + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Active int            `json:"active"`
		Spans  []SpanSnapshot `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Spans) == 0 {
		t.Fatal("no spans recorded under load")
	}
}
