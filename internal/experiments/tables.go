package experiments

import (
	"fmt"
	"strings"
	"time"

	"gftpvc/internal/core"
	"gftpvc/internal/sessions"
	"gftpvc/internal/stats"
	"gftpvc/internal/usagestats"
	"gftpvc/internal/workload"
)

func init() {
	register("table1", reading(&ncarData, tableI))
	register("table2", reading(&slacData, tableII))
	register("table3", tableIII)
	register("table4", tableIV)
	register("table5", reading(&ornlRecords, tableV))
	register("table6", reading(&anlTransfers, tableVI))
	register("table7", reading(&ncarLarge, tableVII))
	register("table8", reading(&ncarLarge, tableVIII))
	register("table9", reading(&ncarLarge, tableIX))
}

// sessionCharacterization renders a Table I/II-style block for one dataset.
func sessionCharacterization(id, title string,
	sizePaper, durPaper, thrPaper stats.Summary, ds *dataset) (Result, error) {
	ss, err := ds.grouped(time.Minute)
	if err != nil {
		return nil, err
	}
	sizes := stats.MustSummarize(sessions.Sizes(ss))
	durs := stats.MustSummarize(sessions.Durations(ss))
	thr := stats.MustSummarize(sessions.TransferThroughputsMbps(ds.Records))
	var b strings.Builder
	fmt.Fprintf(&b, "%s (g = 1 min; %d transfers, %d sessions)\n\n", title, len(ds.Records), len(ss))
	fmt.Fprint(&b, summaryBlock("Session sizes (MB)", sizes, sizePaper))
	fmt.Fprintln(&b)
	fmt.Fprint(&b, summaryBlock("Session durations (s)", durs, durPaper))
	fmt.Fprintln(&b)
	fmt.Fprint(&b, summaryBlock("Transfer throughput (Mbps)", thr, thrPaper))
	return textResult{id, b.String()}, nil
}

// tableI reproduces Table I: NCAR–NICS sessions and transfers at g = 1 min.
func tableI(ds *dataset) (Result, error) {
	return sessionCharacterization("table1",
		"Table I: NCAR-NICS sessions and transfers",
		workload.PaperNCARNICSSessionSizeMB,
		workload.PaperNCARNICSSessionDurationSec,
		workload.PaperNCARNICSThroughputMbps, ds)
}

// tableII reproduces Table II: SLAC–BNL sessions and transfers at g = 1 min.
func tableII(ds *dataset) (Result, error) {
	return sessionCharacterization("table2",
		"Table II: SLAC-BNL sessions and transfers",
		workload.PaperSLACBNLSessionSizeMB,
		workload.PaperSLACBNLSessionDurationSec,
		workload.PaperSLACBNLThroughputMbps, ds)
}

// paperTableIII holds the legible entries of Table III for comparison.
var paperTableIII = map[string]string{
	"ncar/g=0s":   "25,xxx single | max 19,951 | >=100: 27 (partially legible)",
	"ncar/g=1m0s": "94 single, 117 multi | max 19,951 | >=100: 27",
	"ncar/g=2m0s": "max 19,951 | >=100: 27 (counts partially legible)",
	"slac/g=0s":   "41,xxx single | max 9,120 | >=100: 1,277",
	"slac/g=1m0s": "779 single, 9,420 multi | max 30,153 | >=100: 1,412",
	"slac/g=2m0s": "358 single, 5,xxx multi | max 38,497 | >=100: 1,068",
}

// sessionLogs are the two path logs Tables III and IV group into
// sessions at each of gaps.
var sessionLogs = []struct {
	name string
	ds   *slot[*dataset]
}{{"ncar", &ncarData}, {"slac", &slacData}}

// tableIII reproduces Table III: the impact of the g parameter on session
// structure for both datasets.
func tableIII(seed int64) (Result, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: impact of the g parameter on number of sessions\n\n")
	fmt.Fprintf(&b, "%-14s %10s %10s %10s %12s %10s   %s\n",
		"dataset/g", "single", "multi", "%<=2", "max-xfers", ">=100", "paper (legible parts)")
	for _, entry := range sessionLogs {
		ds, err := entry.ds.at(seed)
		if err != nil {
			return nil, err
		}
		for _, g := range gaps {
			ss, err := ds.grouped(g)
			if err != nil {
				return nil, err
			}
			st := sessions.Summarize(ss)
			key := fmt.Sprintf("%s/g=%s", entry.name, g)
			fmt.Fprintf(&b, "%-14s %10d %10d %9.2f%% %12d %10d   %s\n",
				key, st.SingleTransfer, st.MultiTransfer, st.PercentOneOrTwo,
				st.MaxTransfers, st.SessionsOver100Xfers, paperTableIII[key])
		}
	}
	return textResult{"table3", b.String()}, nil
}

// paperTableIV: percentage of sessions (percentage of transfers) suitable
// for dynamic VCs, from the paper.
var paperTableIV = map[string]string{
	"ncar/g=0s/1m0s":   "2.x% (2.14%)",
	"ncar/g=0s/50ms":   "87.09% (89.33%)",
	"ncar/g=1m0s/1m0s": "56.87% (90.54%)",
	"ncar/g=1m0s/50ms": "92.89% (98.04%)",
	"ncar/g=2m0s/1m0s": "62.16% (90.71%)",
	"ncar/g=2m0s/50ms": "94.59% (98.17%)",
	"slac/g=0s/1m0s":   "1.95% (39.41%)",
	"slac/g=0s/50ms":   "52.58% (89.68%)",
	"slac/g=1m0s/1m0s": "12.54% (78.38%)",
	"slac/g=1m0s/50ms": "93.56% (99.73%)",
	"slac/g=2m0s/1m0s": "15.93% (85.49%)",
	"slac/g=2m0s/50ms": "94.47% (99.85%)",
}

// tableIVCell is one Table IV entry.
type tableIVCell struct {
	SessionsPct  float64
	TransfersPct float64
}

// tableIV reproduces Table IV: the share of sessions (and transfers) for
// which dynamic-VC setup delay is an acceptable overhead, across both
// datasets, three g values, and two setup-delay regimes. Its values are
// the cells keyed by "<dataset>/g=<g>/<setup>".
func tableIV(seed int64) (Result, error) {
	cells := map[string]tableIVCell{}
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: %% sessions (%% transfers) suitable for dynamic VCs\n")
	fmt.Fprintf(&b, "rule: hypothetical duration at Q3 transfer throughput >= 10 x setup delay\n\n")
	fmt.Fprintf(&b, "%-22s %24s %28s\n", "dataset/g/setup", "measured", "paper")
	for _, entry := range sessionLogs {
		ds, err := entry.ds.at(seed)
		if err != nil {
			return nil, err
		}
		ref, err := core.ReferenceThroughputFromRecordsBps(
			sessions.TransferThroughputsMbps(ds.Records))
		if err != nil {
			return nil, err
		}
		for _, g := range gaps {
			ss, err := ds.grouped(g)
			if err != nil {
				return nil, err
			}
			for _, setup := range []time.Duration{time.Minute, 50 * time.Millisecond} {
				cfg := core.FeasibilityConfig{
					SetupDelay:             setup,
					OverheadFactor:         10,
					ReferenceThroughputBps: ref,
				}
				res, err := cfg.Analyze(ss)
				if err != nil {
					return nil, err
				}
				key := fmt.Sprintf("%s/g=%s/%s", entry.name, g, setup)
				c := tableIVCell{res.PercentSessions(), res.PercentTransfers()}
				cells[key] = c
				fmt.Fprintf(&b, "%-22s %15.2f%% (%5.2f%%) %28s\n",
					key, c.SessionsPct, c.TransfersPct, paperTableIV[key])
			}
		}
	}
	return valued[map[string]tableIVCell]{textResult{"table4", b.String()}, cells}, nil
}

// tableV reproduces Table V: duration and throughput of the 145 32 GB
// NERSC–ORNL test transfers.
func tableV(records []usagestats.Record) (Result, error) {
	var durs, thrs []float64
	for _, r := range records {
		durs = append(durs, r.DurationSec)
		thrs = append(thrs, r.ThroughputMbps())
	}
	dm := stats.MustSummarize(durs)
	tm := stats.MustSummarize(thrs)
	var b strings.Builder
	fmt.Fprintf(&b, "Table V: the 32 GB NERSC-ORNL transfers (%d)\n\n", len(records))
	fmt.Fprint(&b, summaryBlock("Throughput (Mbps)", tm, workload.PaperNERSCORNLThroughputMbps))
	fmt.Fprintln(&b)
	fmt.Fprintln(&b, "Duration (s): measured "+fmt.Sprintf("min %.0f / median %.0f / max %.0f", dm.Min, dm.Median, dm.Max))
	fmt.Fprintf(&b, "paper anchors: IQR %.0f Mbps (measured %.0f), min 758, max 3640\n",
		695.0, tm.IQR())
	return textResult{"table5", b.String()}, nil
}

// paperTableVI holds Table VI's coefficient-of-variation row (the fully
// legible part) for the four endpoint categories.
var paperTableVI = map[string]float64{
	"mem-mem": 0.3569, "mem-disk": 0.3163, "disk-mem": 0.3080, "disk-disk": 0.3310,
}

// tableVI reproduces Table VI: ANL→NERSC transfer throughput by endpoint
// category, with coefficients of variation.
func tableVI(ts []workload.ANLTransfer) (Result, error) {
	cats := workload.ANLCategoryThroughputs(ts)
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: throughput of ANL-NERSC transfers (Mbps)\n\n")
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %8s %8s %8s %8s %10s %10s\n",
		"category", "n", "Min", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max", "CV", "paper CV")
	for _, name := range []string{"mem-mem", "mem-disk", "disk-mem", "disk-disk"} {
		s := stats.MustSummarize(cats[name])
		fmt.Fprintf(&b, "%-12s %6d %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %9.2f%% %9.2f%%\n",
			name, s.N, s.Min, s.Q1, s.Median, s.Mean, s.Q3, s.Max, 100*s.CV(), 100*paperTableVI[name])
	}
	fmt.Fprintln(&b, "\npaper shape: write-to-disk categories have the lowest medians (NERSC disk\nI/O bottleneck); CV is substantial in every category (~31-36%).")
	return textResult{"table6", b.String()}, nil
}

// tableVII reproduces Table VII: throughput variance of the 16 GB and 4 GB
// NCAR transfer subsets.
func tableVII(nl ncarLargeSet) (Result, error) {
	t16, t4 := nl.t16, nl.t4
	s16 := stats.MustSummarize(workload.ThroughputsOf(t16))
	s4 := stats.MustSummarize(workload.ThroughputsOf(t4))
	var b strings.Builder
	fmt.Fprintf(&b, "Table VII: throughput variance of 16GB/4GB transfers in the NCAR data (Mbps)\n\n")
	fmt.Fprintln(&b, summaryHeader()+fmt.Sprintf(" %10s", "StdDev"))
	fmt.Fprintln(&b, summaryRow("  16G", s16)+fmt.Sprintf(" %10.1f", s16.StdDev))
	fmt.Fprintln(&b, summaryRow("  4G", s4)+fmt.Sprintf(" %10.1f", s4.StdDev))
	fmt.Fprintln(&b, "\npaper shape: both subsets show large spread (std dev comparable to the median).")
	return textResult{"table7", b.String()}, nil
}

// ncarSplitTable renders the Table VIII/IX layout: the 16G and 4G NCAR
// subsets, each split by one integer attribute (field) into the given
// values, one row per non-empty group keyed by keyFmt(tag, value).
func ncarSplitTable(nl ncarLargeSet, id, title, keyFmt string,
	field func(workload.LargeTransfer) int, values []int, note string) (Result, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%-12s %6s %8s %8s %8s %8s %8s %8s %10s\n",
		"group", "n", "Min", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max", "StdDev")
	for _, set := range []struct {
		tag string
		ts  []workload.LargeTransfer
	}{{"16G", nl.t16}, {"4G", nl.t4}} {
		for _, v := range values {
			xs := workload.ThroughputsOf(workload.FilterLarge(set.ts,
				func(l workload.LargeTransfer) bool { return field(l) == v }))
			if len(xs) == 0 {
				continue
			}
			s := stats.MustSummarize(xs)
			fmt.Fprintf(&b, "%-12s %6d %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %10.1f\n",
				fmt.Sprintf(keyFmt, set.tag, v), s.N, s.Min, s.Q1, s.Median, s.Mean, s.Q3, s.Max, s.StdDev)
		}
	}
	fmt.Fprintln(&b, "\n"+note)
	return textResult{id, b.String()}, nil
}

// tableVIII reproduces Table VIII: year-based throughput of the 16GB/4GB
// NCAR subsets (the frost cluster shrank from 3 servers to 1 over
// 2009–2011).
func tableVIII(nl ncarLargeSet) (Result, error) {
	return ncarSplitTable(nl, "table8",
		"Table VIII: year-based throughput of 16GB/4GB NCAR transfers (Mbps)", "%s/%d",
		func(l workload.LargeTransfer) int { return l.Year }, []int{2009, 2010, 2011},
		"paper shape: medians decline from 2009 to 2011 as the NCAR cluster shrank\nfrom 3 servers to 1.")
}

// tableIX reproduces Table IX: stripes-based throughput of the same
// subsets; the median rises with the stripe count.
func tableIX(nl ncarLargeSet) (Result, error) {
	return ncarSplitTable(nl, "table9",
		"Table IX: stripes-based throughput of 16GB/4GB NCAR transfers (Mbps)", "%s/%d-stripe",
		func(l workload.LargeTransfer) int { return l.Stripes }, []int{1, 2, 3},
		"paper shape: \"the median column is the one to consider. This is higher when\nthe number of stripes is higher\" — for both subsets.")
}
