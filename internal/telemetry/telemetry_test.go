package telemetry

import (
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterValue(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_bytes_total", "help")
	c.Add(5)
	c.Inc()
	c.Add(-3) // counters only go up; negative adds are dropped
	if got := c.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
	if again := r.Counter("test_bytes_total", "help"); again != c {
		t.Fatal("same name+labels must resolve to the same instrument")
	}
	if other := r.Counter("test_bytes_total", "help", L("op", "x")); other == c {
		t.Fatal("different label sets must be distinct series")
	}
}

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_concurrent_total", "help")
	const workers, per = 32, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("Value = %d, want %d", got, workers*per)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "help")
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("Value = %d, want 6", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_duration_seconds", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	if math.Abs(h.Sum()-106.5) > 1e-9 {
		t.Fatalf("Sum = %v, want 106.5", h.Sum())
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Buckets are cumulative: le=1 catches 0.5 and the boundary value 1.
	for _, want := range []string{
		"# TYPE test_duration_seconds histogram",
		`test_duration_seconds_bucket{le="1"} 2`,
		`test_duration_seconds_bucket{le="10"} 3`,
		`test_duration_seconds_bucket{le="+Inf"} 4`,
		"test_duration_seconds_sum 106.5",
		"test_duration_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePromLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "ops by kind", L("result", "ok"), L("op", `we"ird`)).Add(3)
	var sb strings.Builder
	r.WriteProm(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP test_ops_total ops by kind",
		"# TYPE test_ops_total counter",
		`test_ops_total{op="we\"ird",result="ok"} 3`, // keys sorted, value escaped
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNameValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	mustPanic("uppercase metric", func() { r.Counter("BadName", "h") })
	mustPanic("leading digit", func() { r.Counter("0bad", "h") })
	mustPanic("hyphen", func() { r.Counter("bad-name", "h") })
	mustPanic("bad label key", func() { r.Counter("good_total", "h", L("Bad-Key", "v")) })
	r.Counter("dual_total", "h")
	mustPanic("kind mismatch", func() { r.Gauge("dual_total", "h") })
	mustPanic("decreasing buckets", func() { r.Histogram("hist_seconds", "h", []float64{2, 1}) })
}

func TestSpanLifecycle(t *testing.T) {
	epoch := time.Now()
	log := NewSpanLog(epoch, 4)
	sp := log.Start("retr", "x.bin", PhaseSetup)
	if log.Active() != 1 {
		t.Fatalf("Active = %d, want 1", log.Active())
	}
	sp.SetStreams(2)
	sp.Phase(PhaseStream)
	sp.AddBytes(100)
	sp.AddBytes(-5) // ignored
	sp.Phase(PhaseTeardown)
	sp.End(nil)
	sp.End(nil) // idempotent
	if log.Active() != 0 {
		t.Fatalf("Active = %d after End, want 0", log.Active())
	}
	snaps := log.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Op != "retr" || s.Target != "x.bin" || s.Bytes != 100 || s.Streams != 2 || s.Err != "" {
		t.Fatalf("snapshot = %+v", s)
	}
	wantPhases := []Phase{PhaseSetup, PhaseStream, PhaseTeardown}
	if len(s.Phases) != len(wantPhases) {
		t.Fatalf("phases = %+v, want %v", s.Phases, wantPhases)
	}
	sum := 0.0
	for i, ph := range s.Phases {
		if ph.Name != wantPhases[i] {
			t.Errorf("phase %d = %s, want %s", i, ph.Name, wantPhases[i])
		}
		sum += ph.DurationSec
	}
	// Phases are contiguous by construction: durations sum exactly to the
	// span's wall time (modulo float rounding).
	if math.Abs(sum-s.DurationSec) > 1e-9 {
		t.Errorf("phase durations sum to %v, span duration %v", sum, s.DurationSec)
	}
}

func TestSpanError(t *testing.T) {
	log := NewSpanLog(time.Now(), 4)
	sp := log.Start("stor", "y.bin", PhaseSetup)
	sp.End(errors.New("426 connection reset"))
	s := log.Snapshot()[0]
	if s.Err != "426 connection reset" {
		t.Fatalf("Err = %q", s.Err)
	}
	last := s.Phases[len(s.Phases)-1]
	if last.Name != PhaseError || last.DurationSec != 0 {
		t.Fatalf("terminal phase = %+v, want zero-length error", last)
	}
}

func TestSpanRingCapacity(t *testing.T) {
	log := NewSpanLog(time.Now(), 3)
	for i := 0; i < 5; i++ {
		log.Start("op", "", PhaseSetup).End(nil)
	}
	snaps := log.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("ring len = %d, want 3", len(snaps))
	}
	// Oldest first; spans 1 and 2 were evicted.
	if snaps[0].ID != 3 || snaps[2].ID != 5 {
		t.Fatalf("ring IDs = %d..%d, want 3..5", snaps[0].ID, snaps[2].ID)
	}
}

// TestSpanRingWraps fills the ring three times over, checking at every
// step — before it is full, as it fills, and at each head position of
// each lap — that Snapshot and ByTrace read oldest-first with
// contiguous IDs and that in-flight spans stay out of it.
func TestSpanRingWraps(t *testing.T) {
	const capacity = 5
	log := NewSpanLog(time.Now(), capacity)
	open := log.Start("held", "", PhaseSetup)
	for n := 1; n <= 3*capacity; n++ {
		sp := log.Start("op", "", PhaseSetup) // span ID n+1: "held" took 1
		if n%2 == 0 {
			sp.SetTrace("00112233445566aa", "")
		}
		sp.End(nil)
		snaps := log.Snapshot()
		if want := min(n, capacity); len(snaps) != want {
			t.Fatalf("after %d spans the ring holds %d, want %d", n, len(snaps), want)
		}
		for i, s := range snaps {
			if want := uint64(n + 1 - len(snaps) + 1 + i); s.ID != want {
				t.Fatalf("after %d spans Snapshot[%d].ID = %d, want %d", n, i, s.ID, want)
			}
		}
		var traced []uint64
		for _, s := range snaps {
			if s.ID%2 == 1 { // the span of an even n
				traced = append(traced, s.ID)
			}
		}
		byTrace := log.ByTrace("00112233445566aa")
		if len(byTrace) != len(traced) {
			t.Fatalf("after %d spans ByTrace holds %d, want %d", n, len(byTrace), len(traced))
		}
		for i, s := range byTrace {
			if s.ID != traced[i] {
				t.Fatalf("after %d spans ByTrace[%d].ID = %d, want %d", n, i, s.ID, traced[i])
			}
		}
		if log.Active() != 1 {
			t.Fatalf("Active = %d, want 1", log.Active())
		}
	}
	open.End(nil)
	if log.Active() != 0 {
		t.Fatalf("Active = %d after the last End", log.Active())
	}
}

func TestLiveCounterBinning(t *testing.T) {
	set := NewCounterSet(time.Now(), 0.05)
	c := set.Counter("stripe0")
	if again := set.Counter("stripe0"); again != c {
		t.Fatal("same name must resolve to the same counter")
	}
	c.Add(100)
	time.Sleep(120 * time.Millisecond) // at least two bin widths later
	c.Add(50)
	origin, bin, bytes := c.Snapshot()
	if origin != 0 || bin != 0.05 {
		t.Fatalf("Snapshot origin=%v bin=%v, want 0, 0.05", origin, bin)
	}
	if len(bytes) < 3 {
		t.Fatalf("bins = %v, want >= 3 (zero-extended through now)", bytes)
	}
	total := 0.0
	for _, b := range bytes {
		total += b
	}
	if total != 150 {
		t.Fatalf("bin total = %v, want 150", total)
	}
	if bytes[0] != 100 {
		t.Fatalf("bin 0 = %v, want 100", bytes[0])
	}
	if c.Total() != 150 {
		t.Fatalf("Total = %d, want 150", c.Total())
	}
	names := set.Counters()
	if len(names) != 1 || names[0].Name() != "stripe0" {
		t.Fatalf("Counters = %v", names)
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrument handed out by a nil hub must be a usable no-op:
	// this is what lets the engine instrument unconditionally.
	var h *Hub
	h.Counter("x_total", "h").Inc()
	h.Gauge("x", "h").Set(3)
	h.Histogram("x_seconds", "h", nil).Observe(1)
	sp := h.Span("op", "t", PhaseSetup)
	sp.Phase(PhaseStream)
	sp.AddBytes(10)
	sp.SetStreams(2)
	sp.End(errors.New("boom"))
	if sp.Bytes() != 0 {
		t.Fatal("nil span must report zero bytes")
	}
	lc := h.LiveCounter("stripe0")
	lc.Add(10)
	if _, _, bytes := lc.Snapshot(); bytes != nil {
		t.Fatal("nil live counter must snapshot nil")
	}
	if h.Registry().SeriesCount() != 0 || h.Spans().Active() != 0 || h.Live().Counters() != nil {
		t.Fatal("nil hub must expose empty streams")
	}
	if err := h.Registry().WriteProm(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRegistryScrape hammers the registry from mutating
// goroutines while another scrapes the exposition, the exact overlap
// the race detector must clear for a live /metrics endpoint.
func TestConcurrentRegistryScrape(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ops := []string{"retr", "stor", "eret", "list"}
			for j := 0; ; j++ {
				op := ops[(i+j)%len(ops)]
				r.Counter("scrape_ops_total", "h", L("op", op)).Inc()
				r.Gauge("scrape_depth", "h").Add(1)
				r.Histogram("scrape_seconds", "h", DurationBuckets, L("op", op)).Observe(float64(j%7) / 10)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		if err := r.WriteProm(io.Discard); err != nil {
			t.Fatal(err)
		}
		if r.SeriesCount() < 0 {
			t.Fatal("unreachable")
		}
	}
	close(stop)
	wg.Wait()
	var sb strings.Builder
	r.WriteProm(&sb)
	if !strings.Contains(sb.String(), `scrape_ops_total{op="retr"}`) {
		t.Fatal("final exposition missing mutated series")
	}
}

func TestHTTPEndpoints(t *testing.T) {
	hub := NewHubConfig(0.05, 0)
	hub.Counter("endpoint_hits_total", "h").Inc()
	hub.Span("retr", "x.bin", PhaseSetup).End(nil)
	hub.LiveCounter("stripe0").Add(42)
	ms, err := hub.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + ms.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}
	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("/metrics content type %q", ct)
	}
	if !strings.Contains(body, "endpoint_hits_total 1") {
		t.Errorf("/metrics body:\n%s", body)
	}
	if body, ct := get("/healthz"); !strings.HasPrefix(ct, "application/json") ||
		!strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %q (content type %q)", body, ct)
	}
	body, ct = get("/spans")
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/spans content type %q", ct)
	}
	if !strings.Contains(body, `"op":"retr"`) || !strings.Contains(body, `"active":0`) {
		t.Errorf("/spans body: %s", body)
	}
	if body, _ = get("/counters"); !strings.Contains(body, `"name":"stripe0"`) {
		t.Errorf("/counters body: %s", body)
	}
}
