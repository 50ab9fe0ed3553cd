package netsim

import (
	"math"
	"testing"

	"gftpvc/internal/simclock"
)

// TestGuaranteesExceedLineRate starts two guaranteed flows whose combined
// guarantee is far above the hop line rate. The first (lower-ID) flow is
// clamped to the line rate, the second gets the zero residual, and a
// best-effort flow on the same path is starved — all without maxMin
// hanging on the zero-residual link.
func TestGuaranteesExceedLineRate(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	g1, err := nw.StartFlow(path, math.Inf(1), FlowOptions{GuaranteedBps: 5e9})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := nw.StartFlow(path, math.Inf(1), FlowOptions{GuaranteedBps: 5e9})
	if err != nil {
		t.Fatal(err)
	}
	be, err := nw.StartFlow(path, math.Inf(1), FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g1.rate != 1e9 {
		t.Errorf("first guaranteed rate = %v, want 1e9 (clamped to line rate)", g1.rate)
	}
	if g2.rate != 0 {
		t.Errorf("second guaranteed rate = %v, want 0 (residual exhausted)", g2.rate)
	}
	if be.rate != 0 {
		t.Errorf("best-effort rate = %v, want 0 on saturated path", be.rate)
	}
	// Releasing the first guarantee hands the line rate to the second.
	if err := nw.stopFlow(g1); err != nil {
		t.Fatal(err)
	}
	if g2.rate != 1e9 {
		t.Errorf("after stop, second guaranteed rate = %v, want 1e9", g2.rate)
	}
}

// TestStopFlowMidProgressiveFill stops one of three equal sharers partway
// through and checks that (a) the survivors' rates rise immediately,
// (b) the stopped flow's partial bytes stay credited to the link counter.
func TestStopFlowMidProgressiveFill(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 900e6)
	nw := New(eng, tp)
	var flows [3]*Flow
	for i := range flows {
		f, err := nw.StartFlow(path, 1e12, FlowOptions{}) // large enough to outlast the test
		if err != nil {
			t.Fatal(err)
		}
		flows[i] = f
	}
	for i, f := range flows {
		if math.Abs(f.rate-300e6) > 1 {
			t.Fatalf("flow %d rate = %v, want 300e6", i, f.rate)
		}
	}
	eng.MustAt(4, func() {
		if err := nw.stopFlow(flows[1]); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(4)
	if got := flows[1].sizeBytes - flows[1].remainingBytes; math.Abs(got-150e6) > 1 {
		t.Errorf("stopped flow transferred %v bytes, want 150e6", got)
	}
	for _, i := range []int{0, 2} {
		if math.Abs(flows[i].rate-450e6) > 1 {
			t.Errorf("survivor flow %d rate = %v, want 450e6", i, flows[i].rate)
		}
	}
	eng.RunUntil(10)
	// Link counter: 3 flows x 150 MB up to t=4, then 2 x 337.5 MB to t=10.
	want := 3*150e6 + 2*337.5e6
	got, err := nw.LinkBytes(path[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1 {
		t.Errorf("link bytes = %v, want %v", got, want)
	}
}

// TestZeroResidualLinkRecovery pins the maxMin termination behavior when
// a link's residual is exactly zero, and checks that a starved flow
// recovers and completes once capacity is released.
func TestZeroResidualLinkRecovery(t *testing.T) {
	eng := simclock.New()
	tp, path := line(t, 1e9)
	nw := New(eng, tp)
	g, err := nw.StartFlow(path, math.Inf(1), FlowOptions{GuaranteedBps: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	var doneAt simclock.Time
	be, err := nw.StartFlow(path, 125e6, FlowOptions{ // 1 Gbit
		OnDone: func(_ *Flow, at simclock.Time) { doneAt = at },
	})
	if err != nil {
		t.Fatal(err)
	}
	if be.rate != 0 {
		t.Fatalf("best-effort rate = %v, want 0 while guarantee holds the link", be.rate)
	}
	eng.MustAt(5, func() {
		if err := nw.SetGuarantee(g, 0); err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if !be.Done() {
		t.Fatal("starved flow never completed after capacity was released")
	}
	// After release both flows share 1 Gbps; 1 Gbit at 500 Mbps = 2 s.
	if math.Abs(float64(doneAt)-7.0) > 1e-6 {
		t.Errorf("completed at %v, want 7s", doneAt)
	}
	if got := be.sizeBytes - be.remainingBytes; math.Abs(got-125e6) > 1 {
		t.Errorf("transferred %v, want 125e6", got)
	}
}

// TestCompletionOrderDeterministic replays the same randomized scenario
// several times and requires the exact completion sequence — both flow
// order and bit-exact times — to repeat.
func TestCompletionOrderDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		sc := buildScenario(seed)
		firstC, firstE, firstB := runNew(t, sc)
		if len(firstC) == 0 {
			t.Fatalf("seed %d: scenario produced no completions", seed)
		}
		for rep := 0; rep < 3; rep++ {
			c, e, b := runNew(t, sc)
			if len(c) != len(firstC) {
				t.Fatalf("seed %d rep %d: %d completions, first run had %d", seed, rep, len(c), len(firstC))
			}
			for i := range c {
				if c[i] != firstC[i] {
					t.Fatalf("seed %d rep %d: completion %d = %+v, first run %+v", seed, rep, i, c[i], firstC[i])
				}
			}
			for i := range e {
				if e[i] != firstE[i] {
					t.Fatalf("seed %d rep %d: flow %d end %v vs %v", seed, rep, i, e[i], firstE[i])
				}
			}
			for id, want := range firstB {
				if b[id] != want {
					t.Fatalf("seed %d rep %d: link %s bytes %v vs %v", seed, rep, id, b[id], want)
				}
			}
		}
	}
}
