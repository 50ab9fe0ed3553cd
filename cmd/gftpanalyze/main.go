// Command gftpanalyze analyzes a GridFTP usage log: groups transfers into
// sessions with the paper's g parameter, prints the Table I-style
// five-number summaries, and runs the Table IV virtual-circuit feasibility
// analysis.
//
// With -spans it instead reads a /spans JSON dump from a telemetry hub
// and prints a live variance-attribution report: for each operation,
// the p99-slowest span's phase profile against the per-phase medians,
// charging the tail slowdown to the phases that grew (the measured
// analogue of the paper's Figs 7-8 / Eq. 2 decomposition).
//
// Usage:
//
//	gftpanalyze -g 1m -setup 1m < transfers.log
//	gftpsim -path slac-bnl -scale 0.01 | gftpanalyze -g 1m -setup 50ms
//	curl -s http://127.0.0.1:9999/spans > spans.json && gftpanalyze -spans spans.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"gftpvc/internal/core"
	"gftpvc/internal/sessions"
	"gftpvc/internal/stats"
	"gftpvc/internal/usagestats"
)

func main() {
	var (
		in     = flag.String("i", "-", "input log file ('-' for stdin)")
		gFlag  = flag.Duration("g", time.Minute, "session gap parameter")
		setup  = flag.Duration("setup", time.Minute, "VC setup delay for the feasibility analysis")
		factor = flag.Float64("factor", 10, "required session-duration/setup-delay ratio")
		sweep  = flag.Bool("sweep", false, "also print a Table III-style sweep over g in {0, 30s, 1m, 2m, 10m}")
		spans  = flag.String("spans", "", "variance-attribution mode: read a /spans JSON dump and decompose each operation's p99 slowness by phase (ignores the usage-log flags)")
		minSp  = flag.Int("min-spans", 4, "with -spans, skip operations with fewer completed spans than this")
	)
	flag.Parse()
	if *spans != "" {
		if err := runVariance(*spans, *minSp); err != nil {
			fmt.Fprintf(os.Stderr, "gftpanalyze: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*in, *gFlag, *setup, *factor, *sweep); err != nil {
		fmt.Fprintf(os.Stderr, "gftpanalyze: %v\n", err)
		os.Exit(1)
	}
}

func run(in string, g, setup time.Duration, factor float64, sweep bool) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	all, err := usagestats.ReadLog(r)
	if err != nil {
		return err
	}
	// Servers now log failed and aborted transfers too (CODE >= 400 with
	// the partial byte count). The throughput and session analyses model
	// completed transfers, as the paper's datasets do, so failures are
	// set aside and reported.
	records := all[:0:0]
	failed := 0
	for _, rec := range all {
		if rec.Failed() {
			failed++
			continue
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		return errors.New("no completed transfers in input")
	}
	ths := sessions.TransferThroughputsMbps(records)
	thr := stats.MustSummarize(ths)
	fmt.Printf("%d transfers", len(records))
	if failed > 0 {
		fmt.Printf(" (+%d failed, excluded)", failed)
	}
	fmt.Println()
	printSummary("transfer throughput (Mbps)", thr)

	// Sorted once, the log is cut at g and at each of -sweep's gaps.
	byPair, err := sessions.ByPair(records)
	if errors.Is(err, sessions.ErrNoRemote) {
		fmt.Println("\nremote endpoints are anonymized: session analysis unavailable")
		fmt.Println("(the paper hit the same limitation on the NERSC dataset;")
		fmt.Println(" falling back to periodic admin-test isolation, as it did)")
		groups, err := sessions.IsolatePeriodic(records, 0.30, 20)
		if err != nil {
			return err
		}
		if len(groups) == 0 {
			fmt.Println("no periodic test series detected")
			return nil
		}
		for i, grp := range groups {
			var ths []float64
			for _, r := range grp.Records {
				ths = append(ths, r.ThroughputMbps())
			}
			s := stats.MustSummarize(ths)
			fmt.Printf("\nperiodic series %d: %d transfers of ~%.1f GB at hours %v (UTC)\n",
				i+1, len(grp.Records), float64(grp.NominalBytes)/(1<<30), grp.Hours)
			printSummary("  throughput (Mbps)", s)
		}
		return nil
	}
	if err != nil {
		return err
	}
	ss, err := sessions.Cut(byPair, g)
	if err != nil {
		return err
	}
	st := sessions.Summarize(ss)
	fmt.Printf("\nsessions at g=%v: %d (%d single, %d multi, max fan-out %d, >=100 transfers: %d)\n",
		g, st.Sessions, st.SingleTransfer, st.MultiTransfer, st.MaxTransfers, st.SessionsOver100Xfers)
	printSummary("session sizes (MB)", stats.MustSummarize(sessions.Sizes(ss)))
	printSummary("session durations (s)", stats.MustSummarize(sessions.Durations(ss)))

	ref, err := core.ReferenceThroughputFromRecordsBps(ths)
	if err != nil {
		return err
	}
	cfg := core.FeasibilityConfig{
		SetupDelay:             setup,
		OverheadFactor:         factor,
		ReferenceThroughputBps: ref,
	}
	res, err := cfg.Analyze(ss)
	if err != nil {
		return err
	}
	fmt.Printf("\nVC feasibility (setup %v, factor %.0f, reference Q3 %.1f Mbps):\n",
		setup, factor, ref/1e6)
	fmt.Printf("  minimum suitable session size: %.1f MB\n", res.MinSuitableSizeBytes/1e6)
	fmt.Printf("  suitable: %.2f%% of sessions, carrying %.2f%% of transfers\n",
		res.PercentSessions(), res.PercentTransfers())

	if sweep {
		fmt.Printf("\ngap-parameter sweep (Table III style):\n")
		fmt.Printf("  %-8s %10s %10s %10s %12s %8s\n", "g", "sessions", "single", "multi", "max-xfers", ">=100")
		for _, gv := range []time.Duration{0, 30 * time.Second, time.Minute, 2 * time.Minute, 10 * time.Minute} {
			gs, err := sessions.Cut(byPair, gv)
			if err != nil {
				return err
			}
			st := sessions.Summarize(gs)
			fmt.Printf("  %-8v %10d %10d %10d %12d %8d\n",
				gv, st.Sessions, st.SingleTransfer, st.MultiTransfer,
				st.MaxTransfers, st.SessionsOver100Xfers)
		}
	}
	return nil
}

func printSummary(name string, s stats.Summary) {
	fmt.Printf("%-28s min %.4g / q1 %.4g / med %.4g / mean %.4g / q3 %.4g / max %.4g\n",
		name, s.Min, s.Q1, s.Median, s.Mean, s.Q3, s.Max)
}
