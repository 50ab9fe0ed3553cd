package core

import (
	"math"
	"testing"
	"time"

	"gftpvc/internal/oscars"
	"gftpvc/internal/sessions"
	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
	"gftpvc/internal/usagestats"
)

func mkSession(t *testing.T, sizeBytes int64, transfers int) *sessions.Session {
	t.Helper()
	s := &sessions.Session{ServerHost: "a", RemoteHost: "b"}
	per := sizeBytes / int64(transfers)
	start := time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < transfers; i++ {
		s.Transfers = append(s.Transfers, usagestats.Record{
			Type: usagestats.Retrieve, SizeBytes: per,
			Start: start.Add(time.Duration(i) * time.Minute), DurationSec: 10,
			ServerHost: "a", RemoteHost: "b", Streams: 1, Stripes: 1,
		})
	}
	return s
}

func TestFeasibilityConfigValidate(t *testing.T) {
	good := FeasibilityConfig{
		SetupDelay: time.Minute, OverheadFactor: 10, ReferenceThroughputBps: 682.2e6,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, bad := range []FeasibilityConfig{
		{SetupDelay: 0, OverheadFactor: 10, ReferenceThroughputBps: 1},
		{SetupDelay: time.Minute, OverheadFactor: 0, ReferenceThroughputBps: 1},
		{SetupDelay: time.Minute, OverheadFactor: 10, ReferenceThroughputBps: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestMinSuitableSessionBytes(t *testing.T) {
	// The paper: with 50 ms setup, factor 10, 682.2 Mbps reference, the
	// threshold is ~42 MB ("dynamic VCs can be used for sessions of sizes
	// 42 MB or larger").
	cfg := FeasibilityConfig{
		SetupDelay: 50 * time.Millisecond, OverheadFactor: 10,
		ReferenceThroughputBps: 682.2e6,
	}
	got := cfg.MinSuitableSessionBytes()
	if math.Abs(got-42.6e6)/42.6e6 > 0.02 {
		t.Errorf("threshold = %v bytes, want ~42.6 MB", got)
	}
}

func TestAnalyzeTableIVRule(t *testing.T) {
	// 1-min setup, factor 10, 800 Mbps reference: threshold = 60 Gbyte*... =
	// 10*60s*1e8 B/s = 60e9 bytes.
	cfg := FeasibilityConfig{
		SetupDelay: time.Minute, OverheadFactor: 10, ReferenceThroughputBps: 800e6,
	}
	ss := []*sessions.Session{
		mkSession(t, 100e9, 50), // suitable
		mkSession(t, 59e9, 10),  // just below threshold
		mkSession(t, 61e9, 40),  // just above
	}
	res, err := cfg.Analyze(ss)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuitableSessions != 2 || res.Sessions != 3 {
		t.Errorf("result = %+v", res)
	}
	if res.Transfers != 100 || res.SuitableTransfers != 90 {
		t.Errorf("transfer counts = %d/%d, want 90/100", res.SuitableTransfers, res.Transfers)
	}
	if math.Abs(res.PercentSessions()-66.666) > 0.1 {
		t.Errorf("PercentSessions = %v", res.PercentSessions())
	}
	if math.Abs(res.PercentTransfers()-90) > 1e-9 {
		t.Errorf("PercentTransfers = %v", res.PercentTransfers())
	}
}

func TestAnalyzeValidates(t *testing.T) {
	if _, err := (FeasibilityConfig{}).Analyze(nil); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	cfg := FeasibilityConfig{
		SetupDelay: time.Minute, OverheadFactor: 10, ReferenceThroughputBps: 1e8,
	}
	res, err := cfg.Analyze(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PercentSessions() != 0 || res.PercentTransfers() != 0 {
		t.Errorf("empty dataset percentages should be 0: %+v", res)
	}
}

func TestReferenceThroughput(t *testing.T) {
	got, err := ReferenceThroughputFromRecordsBps([]float64{100, 200, 300, 400, 500})
	if err != nil {
		t.Fatal(err)
	}
	if got != 400e6 {
		t.Errorf("reference = %v, want 400e6", got)
	}
	if _, err := ReferenceThroughputFromRecordsBps(nil); err == nil {
		t.Error("empty input should fail")
	}
}

// hybrid engine tests

func buildIDC(t *testing.T) (*simclock.Engine, *oscars.IDC) {
	t.Helper()
	tp := topo.New()
	for _, id := range []topo.NodeID{"src", "mid", "dst"} {
		if _, err := tp.AddNode(id, topo.Host); err != nil {
			t.Fatal(err)
		}
	}
	if err := tp.AddDuplex("src", "mid", 10e9, 0.01); err != nil {
		t.Fatal(err)
	}
	if err := tp.AddDuplex("mid", "dst", 10e9, 0.01); err != nil {
		t.Fatal(err)
	}
	eng := simclock.New()
	led, err := oscars.NewLedger(tp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	idc, err := oscars.NewIDC("esnet", eng, led, oscars.HardwareSignaling)
	if err != nil {
		t.Fatal(err)
	}
	return eng, idc
}

func hybridCfg() HybridConfig {
	return HybridConfig{
		Feasibility: FeasibilityConfig{
			SetupDelay: time.Minute, OverheadFactor: 10, ReferenceThroughputBps: 1e9,
		},
		CircuitRateBps: 1e9,
		HoldSlack:      2 * simclock.Minute,
	}
}

func TestNewHybridEngineValidation(t *testing.T) {
	_, idc := buildIDC(t)
	if _, err := NewHybridEngine(HybridConfig{}, idc); err == nil {
		t.Error("invalid feasibility should fail")
	}
	cfg := hybridCfg()
	cfg.CircuitRateBps = 0
	if _, err := NewHybridEngine(cfg, idc); err == nil {
		t.Error("zero circuit rate should fail")
	}
	cfg = hybridCfg()
	cfg.HoldSlack = -1
	if _, err := NewHybridEngine(cfg, idc); err == nil {
		t.Error("negative slack should fail")
	}
	if _, err := NewHybridEngine(hybridCfg(), nil); err == nil {
		t.Error("nil IDC should fail")
	}
}

func TestDecideSmallSessionIP(t *testing.T) {
	_, idc := buildIDC(t)
	e, err := NewHybridEngine(hybridCfg(), idc)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold = 10*60s*1 Gbps = 75e9 bytes; a 1 GB session is too small.
	plan, err := e.Decide("src", "dst", 1e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Service != IPRouted || plan.Circuit != nil {
		t.Errorf("plan = %+v, want IP-routed", plan)
	}
}

func TestDecideLargeSessionVC(t *testing.T) {
	eng, idc := buildIDC(t)
	e, _ := NewHybridEngine(hybridCfg(), idc)
	plan, err := e.Decide("src", "dst", 200e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Service != DynamicVC || plan.Circuit == nil {
		t.Fatalf("plan = %+v, want dynamic VC", plan)
	}
	if got := plan.Circuit.Request.RateBps; got != 1e9 {
		t.Errorf("circuit rate = %v, want 1e9", got)
	}
	eng.RunUntil(1)
	if plan.Circuit.State() != oscars.Active {
		t.Errorf("circuit state = %v, want ACTIVE", plan.Circuit.State())
	}
	vc, ip, fb := e.Stats()
	if vc != 1 || ip != 0 || fb != 0 {
		t.Errorf("stats = %d/%d/%d", vc, ip, fb)
	}
}

func TestDecideFallsBackWhenSaturated(t *testing.T) {
	_, idc := buildIDC(t)
	e, _ := NewHybridEngine(hybridCfg(), idc)
	// Ledger reservable = 5 Gbps; five 1 Gbps circuits fill it.
	for i := 0; i < 5; i++ {
		plan, err := e.Decide("src", "dst", 200e9, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Service != DynamicVC {
			t.Fatalf("circuit %d not admitted", i)
		}
	}
	plan, err := e.Decide("src", "dst", 200e9, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Service != IPRouted || plan.FallbackReason == "" {
		t.Errorf("plan = %+v, want IP fallback with reason", plan)
	}
	vc, ip, fb := e.Stats()
	if vc != 5 || ip != 1 || fb != 1 {
		t.Errorf("stats = %d/%d/%d", vc, ip, fb)
	}
	if len(e.plans) != 6 {
		t.Errorf("plans = %d, want 6", len(e.plans))
	}
}

func TestDecideValidation(t *testing.T) {
	_, idc := buildIDC(t)
	e, _ := NewHybridEngine(hybridCfg(), idc)
	if _, err := e.Decide("src", "dst", 0, 0); err == nil {
		t.Error("zero size should fail")
	}
}

func TestServiceKindString(t *testing.T) {
	if IPRouted.String() != "ip-routed" || DynamicVC.String() != "dynamic-vc" {
		t.Error("ServiceKind string mismatch")
	}
}
