package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"gftpvc/internal/netsim"
	"gftpvc/internal/simclock"
	"gftpvc/internal/snmp"
	"gftpvc/internal/stats"
	"gftpvc/internal/topo"
)

func init() {
	register("table10", reading(&campaigns, tableX))
	register("table11", reading(&campaigns, tableXI))
	register("table12", reading(&campaigns, tableXII))
	register("table13", reading(&campaigns, tableXIII))
}

// ornlCampaign replays the 145 32 GB NERSC–ORNL test transfers over the
// simulated ESnet path with light background traffic and 30-second SNMP
// collection on the five observed core-router egress interfaces — the
// full measurement pipeline behind Tables X–XIII.
type ornlCampaign struct {
	scenario *topo.Scenario
	// egress[i] is core router i's egress link along the path.
	egress   []topo.LinkID
	counters map[topo.LinkID]*snmp.Counter
	obs      []snmp.TransferObs
}

func buildORNLCampaign(seed int64) (*ornlCampaign, error) {
	records, err := ornlRecords.at(seed)
	if err != nil {
		return nil, err
	}
	scenario := topo.NERSCORNL()
	eng := simclock.New()
	nw := netsim.New(eng, scenario.Topo)
	path, err := scenario.ForwardPath()
	if err != nil {
		return nil, err
	}
	// The observed interfaces: each core router's egress link on the path.
	var egress []topo.LinkID
	for _, rt := range scenario.CoreRouters {
		for _, l := range path {
			if l.Src == rt {
				egress = append(egress, l.ID)
			}
		}
	}
	if len(egress) != len(scenario.CoreRouters) {
		return nil, errors.New("experiments: path does not traverse all core routers")
	}
	poller, err := snmp.NewPoller(nw, egress, snmp.DefaultBinSec)
	if err != nil {
		return nil, err
	}
	if err := poller.Start(); err != nil {
		return nil, err
	}
	// Background traffic: one end-to-end general-purpose aggregate plus an
	// independent local stream per observed core link, rates re-drawn
	// every five minutes between 5 and 60 Mbps. Backbone links stay
	// lightly loaded (Table XIII), the byte counters still see
	// non-GridFTP traffic (Table XII), and the per-link streams keep the
	// five routers' columns from being byte-identical.
	rng := rand.New(rand.NewSource(seed + 1))
	var bgs []*netsim.Flow
	e2e, err := nw.StartFlow(path, math.Inf(1), netsim.FlowOptions{RateCapBps: 20e6})
	if err != nil {
		return nil, err
	}
	bgs = append(bgs, e2e)
	for _, l := range path {
		for _, id := range egress {
			if l.ID == id {
				local, err := nw.StartFlow(topo.Path{l}, math.Inf(1),
					netsim.FlowOptions{RateCapBps: 5e6 + rng.Float64()*55e6})
				if err != nil {
					return nil, err
				}
				bgs = append(bgs, local)
			}
		}
	}
	if _, err := simclock.Tick(eng, 300, func(simclock.Time) {
		for _, bg := range bgs {
			_ = nw.SetRateCap(bg, 5e6+rng.Float64()*55e6)
		}
	}); err != nil {
		return nil, err
	}

	camp := &ornlCampaign{scenario: scenario, egress: egress}
	origin := records[0].Start
	var horizon simclock.Time
	for _, r := range records {
		at := simclock.Time(r.Start.Sub(origin).Seconds())
		size := float64(r.SizeBytes)
		rate := r.ThroughputBps()
		eng.MustAt(at, func() {
			_, err := nw.StartFlow(path, size, netsim.FlowOptions{
				RateCapBps: rate,
				OnDone: func(f *netsim.Flow, _ simclock.Time) {
					camp.obs = append(camp.obs, snmp.TransferObs{
						StartSec: float64(f.Start()),
						DurSec:   f.DurationSec(),
						Bytes:    size,
					})
				},
			})
			if err != nil {
				panic(err) // single-threaded sim; configuration bug
			}
		})
		if end := at.Add(simclock.Duration(size * 8 / rate)); end > horizon {
			horizon = end
		}
	}
	eng.RunUntil(horizon.Add(120))
	if len(camp.obs) != len(records) {
		return nil, fmt.Errorf("experiments: %d of %d transfers completed", len(camp.obs), len(records))
	}
	camp.counters = make(map[topo.LinkID]*snmp.Counter, len(egress))
	for _, id := range egress {
		camp.counters[id] = poller.Counter(id)
	}
	return camp, nil
}

// tableX reproduces Table X: the raw 30-second SNMP byte counts within the
// duration of one example 32 GB transfer.
func tableX(camp *ornlCampaign) (Result, error) {
	// Pick the longest transfer so it spans several bins, as in the paper
	// (the example transfer spans seven bins).
	pick := camp.obs[0]
	for _, o := range camp.obs {
		if o.DurSec > pick.DurSec {
			pick = o
		}
	}
	c := camp.counters[camp.egress[0]]
	var b strings.Builder
	fmt.Fprintf(&b, "Table X: SNMP byte counts within one 32 GB transfer (rt1 egress)\n\n")
	fmt.Fprintf(&b, "transfer: start %.0fs, duration %.1fs, %.0f bytes\n\n", pick.StartSec, pick.DurSec, pick.Bytes)
	fmt.Fprintf(&b, "%-16s %18s\n", "bin start (s)", "bytes in bin")
	first := int((pick.StartSec - c.Origin) / c.BinSec)
	last := int((pick.StartSec + pick.DurSec - c.Origin) / c.BinSec)
	total := 0.0
	for i := first; i <= last && i < len(c.Bytes); i++ {
		fmt.Fprintf(&b, "%-16.0f %18.0f\n", c.Origin+float64(i)*c.BinSec, c.Bytes[i])
		total += c.Bytes[i]
	}
	est, err := c.OverlapBytes(pick.StartSec, pick.StartSec+pick.DurSec)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(&b, "%-16s %18.0f\n", "(total)", total)
	fmt.Fprintf(&b, "\nEq.1 overlap-weighted estimate: %.0f bytes (transfer moved %.0f)\n", est, pick.Bytes)
	fmt.Fprintln(&b, "paper shape: the transfer's bytes dominate each bin it spans; edge bins are\nprorated by Eq. 1.")
	return textResult{"table10", b.String()}, nil
}

// correlationTable renders a Table XI/XII-style grid: routers as columns,
// quartiles as rows.
func correlationTable(title string, rows []snmp.CorrelationRow, note string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%-10s", "")
	for i := range rows {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("rt%d", i+1))
	}
	fmt.Fprintln(&b)
	ordinals := []string{"1st Qu.", "2nd Qu.", "3rd Qu.", "4th Qu."}
	for q := 0; q < 4; q++ {
		fmt.Fprintf(&b, "%-10s", ordinals[q])
		for _, r := range rows {
			fmt.Fprintf(&b, " %8.3f", r.Quartiles[q])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "All")
	for _, r := range rows {
		fmt.Fprintf(&b, " %8.3f", r.All)
	}
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "\n"+note)
	return b.String()
}

// tableXI reproduces Table XI: correlation between per-transfer GridFTP
// bytes and the Eq. 1 total link bytes, per quartile and per router; its
// values are the rows, one per router.
func tableXI(camp *ornlCampaign) (Result, error) {
	var rows []snmp.CorrelationRow
	for _, id := range camp.egress {
		row, err := camp.counters[id].CorrelateTotal(camp.obs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return valued[[]snmp.CorrelationRow]{textResult{"table11", correlationTable(
		"Table XI: correlation between GridFTP bytes and total link bytes B_i (NERSC-ORNL)",
		rows,
		"paper shape: \"The high correlations ... suggest that the 32GB transfers\ndominated the total traffic on the ESnet links\" — high in the All row and\neven within each throughput quartile, which surprised the authors for the\nlowest quartile.")}, rows}, nil
}

// tableXII reproduces Table XII: correlation between GridFTP bytes and the
// remaining (non-GridFTP) traffic; its values are the rows, one per
// router.
func tableXII(camp *ornlCampaign) (Result, error) {
	var rows []snmp.CorrelationRow
	for _, id := range camp.egress {
		row, err := camp.counters[id].CorrelateOther(camp.obs)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return valued[[]snmp.CorrelationRow]{textResult{"table12", correlationTable(
		"Table XII: correlation between GridFTP bytes and bytes from other flows (NERSC-ORNL)",
		rows,
		"paper shape: \"The low correlations imply that the remaining traffic does\nnot effect GridFTP transfer throughput.\"")}, rows}, nil
}

// tableXIII reproduces Table XIII: average link load (Gbps) during the
// 32 GB transfers; its values are the load summaries, one per router.
func tableXIII(camp *ornlCampaign) (Result, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table XIII: average link load (Gbps) during the 32 GB transfers\n\n")
	fmt.Fprintln(&b, summaryHeader())
	var loads []stats.Summary
	for i, id := range camp.egress {
		s, err := camp.counters[id].LoadSummary(camp.obs)
		if err != nil {
			return nil, err
		}
		loads = append(loads, s)
		fmt.Fprintln(&b, summaryRow(fmt.Sprintf("  rt%d", i+1), s))
	}
	fmt.Fprintln(&b, "\npaper shape: \"even the maximum loads are only slightly more than half the\nlink capacities (which are all 10 Gbps)\" — backbone links are lightly loaded.")
	return valued[[]stats.Summary]{textResult{"table13", b.String()}, loads}, nil
}
