package experiments

import (
	"math"
	"testing"

	"gftpvc/internal/snmp"
	"gftpvc/internal/stats"
)

// These tests assert the reproduction's shape criteria quantitatively —
// each inequality mirrors a sentence in the paper or a row of
// EXPERIMENTS.md's findings scorecard. They read the numbers each
// exhibit rendered from, so they check what paperrepro prints.

// values runs exhibit id at seed 42 and returns the values it carries.
func values[V any](t *testing.T, id string) V {
	t.Helper()
	res, err := Run(id, 42)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.(valued[V])
	if !ok {
		t.Fatalf("%s: result %T does not carry %T", id, res, v.values)
	}
	return v.values
}

func TestTableIVShape(t *testing.T) {
	cells := values[map[string]tableIVCell](t, "table4")
	get := func(key string) tableIVCell {
		c, ok := cells[key]
		if !ok {
			t.Fatalf("missing cell %s", key)
		}
		return c
	}
	// Finding (i): at g = 1 min with the deployed 1-min setup delay, a
	// minority of sessions carries the large majority of transfers.
	ncar := get("ncar/g=1m0s/1m0s")
	if ncar.SessionsPct < 40 || ncar.SessionsPct > 70 {
		t.Errorf("NCAR sessions%% = %v, paper 56.87", ncar.SessionsPct)
	}
	if ncar.TransfersPct < 85 {
		t.Errorf("NCAR transfers%% = %v, paper 90.54", ncar.TransfersPct)
	}
	slac := get("slac/g=1m0s/1m0s")
	if slac.SessionsPct < 5 || slac.SessionsPct > 30 {
		t.Errorf("SLAC sessions%% = %v, paper 12.54", slac.SessionsPct)
	}
	if slac.TransfersPct < 70 {
		t.Errorf("SLAC transfers%% = %v, paper 78.38", slac.TransfersPct)
	}
	// 50 ms setup makes VCs feasible almost everywhere.
	for _, key := range []string{"ncar/g=1m0s/50ms", "slac/g=1m0s/50ms"} {
		if c := get(key); c.SessionsPct < 75 {
			t.Errorf("%s sessions%% = %v, want > 75", key, c.SessionsPct)
		}
	}
	// g = 0 destroys feasibility at 1-min setup for NCAR (paper: 2.14% of
	// transfers) while the SLAC concurrency keeps its big sessions alive.
	if c := get("ncar/g=0s/1m0s"); c.TransfersPct > 10 {
		t.Errorf("ncar g=0 transfers%% = %v, want collapse", c.TransfersPct)
	}
	// Loosening g never reduces feasibility.
	if get("ncar/g=2m0s/1m0s").SessionsPct < get("ncar/g=1m0s/1m0s").SessionsPct-1e-9 {
		t.Error("g=2min should not reduce NCAR feasibility")
	}
}

func TestStreamShape(t *testing.T) {
	sh := values[streamShape](t, "fig3")
	// Small files: 8 streams clearly win (slow start).
	if sh.SmallFileAdvantage < 1.5 {
		t.Errorf("small-file 8-stream advantage = %v, want > 1.5x", sh.SmallFileAdvantage)
	}
	// Large files: plateaus within ~40% of each other and near 200 Mbps.
	ratio := sh.Plateau8 / sh.Plateau1
	if ratio < 0.8 || ratio > 1.45 {
		t.Errorf("plateau ratio = %v (%.0f vs %.0f), want near 1", ratio, sh.Plateau8, sh.Plateau1)
	}
	if sh.Plateau1 < 100 || sh.Plateau1 > 300 {
		t.Errorf("1-stream plateau = %v Mbps, paper ~200", sh.Plateau1)
	}
	// Knees: the 8-stream group reaches its plateau at a smaller size
	// (paper: ~146 MB vs ~575 MB); require ordering and a factor >= 2.
	if !(sh.Knee8 < sh.Knee1) {
		t.Fatalf("knee ordering violated: %v >= %v", sh.Knee8, sh.Knee1)
	}
	if sh.Knee1/sh.Knee8 < 2 {
		t.Errorf("knee separation = %vx, want >= 2x", sh.Knee1/sh.Knee8)
	}
	// Both knees within a factor of 4 of the paper's readings.
	within := func(got, want float64) bool { return got > want/4 && got < want*4 }
	if !within(sh.Knee8, 146e6) {
		t.Errorf("8-stream knee = %.0f MB, paper ~146 MB", sh.Knee8/1e6)
	}
	if !within(sh.Knee1, 575e6) {
		t.Errorf("1-stream knee = %.0f MB, paper ~575 MB", sh.Knee1/1e6)
	}
	// Fig 4 dip: roughly a 50% drop.
	dip := values[dipShape](t, "fig4")
	var dipRatio float64
	if dip.Out > 0 {
		dipRatio = dip.In / dip.Out
	}
	if dipRatio < 0.35 || dipRatio > 0.7 {
		t.Errorf("dip ratio = %v, paper ~0.5", dipRatio)
	}
}

func TestEq2Shape(t *testing.T) {
	sh := values[eq2Shape](t, "fig8")
	if sh.Rows != 84 {
		t.Errorf("mem-mem rows = %d, want 84", sh.Rows)
	}
	// Paper: ρ = 0.884 with R at the 90th percentile.
	if sh.Rho < 0.7 || sh.Rho > 0.97 {
		t.Errorf("Eq.2 rho = %v, paper 0.884", sh.Rho)
	}
}

func TestSNMPShape(t *testing.T) {
	total := values[[]snmp.CorrelationRow](t, "table11")
	other := values[[]snmp.CorrelationRow](t, "table12")
	loads := values[[]stats.Summary](t, "table13")
	if len(total) != 5 || len(other) != 5 || len(loads) != 5 {
		t.Fatalf("router rows = %d/%d/%d, want 5 each", len(total), len(other), len(loads))
	}
	minAllCorrTotal, maxAllCorrOther, maxLoadGbps := 1.0, 0.0, 0.0
	for i := range total {
		if total[i].All < minAllCorrTotal {
			minAllCorrTotal = total[i].All
		}
		if math.Abs(other[i].All) > maxAllCorrOther {
			maxAllCorrOther = math.Abs(other[i].All)
		}
		if loads[i].Max > maxLoadGbps {
			maxLoadGbps = loads[i].Max
		}
	}
	// Table XI: high everywhere.
	if minAllCorrTotal < 0.9 {
		t.Errorf("weakest Table XI All = %v, want > 0.9", minAllCorrTotal)
	}
	// Table XII: low everywhere.
	if maxAllCorrOther > 0.5 {
		t.Errorf("strongest Table XII All = %v, want < 0.5", maxAllCorrOther)
	}
	// Table XIII: lightly loaded 10 Gbps links.
	if maxLoadGbps > 7 {
		t.Errorf("max link load = %v Gbps, want lightly loaded", maxLoadGbps)
	}
	// The correlation regimes must be clearly separated.
	if minAllCorrTotal < 2*maxAllCorrOther {
		t.Errorf("regimes not separated: XI min %v vs XII max %v",
			minAllCorrTotal, maxAllCorrOther)
	}
}
