// Quickstart: generate a calibrated GridFTP workload, group it into
// sessions with the paper's g parameter, and run the virtual-circuit
// feasibility analysis — the minimal end-to-end use of this library.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"gftpvc/internal/core"
	"gftpvc/internal/sessions"
	"gftpvc/internal/stats"
	"gftpvc/internal/workload"
)

func main() {
	// 1. Generate a scaled-down NCAR-NICS transfer log (5% of the paper's
	//    52,454 transfers; drop Scale for the full dataset).
	ds, err := workload.NCARNICS(workload.Options{Seed: 1, Scale: 0.05})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d transfers between %s and %s\n",
		len(ds.Records), workload.HostNCAR, workload.HostNICS)

	// 2. Group back-to-back transfers into sessions with g = 1 minute,
	//    the value matching ESnet's VC setup delay.
	ss, err := sessions.Group(ds.Records, time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	st := sessions.Summarize(ss)
	fmt.Printf("sessions: %d (%d single-transfer, largest has %d transfers)\n",
		st.Sessions, st.SingleTransfer, st.MaxTransfers)

	sizes := stats.MustSummarize(sessions.Sizes(ss))
	fmt.Printf("session sizes: median %.0f MB, mean %.0f MB (heavily right-skewed)\n",
		sizes.Median, sizes.Mean)

	// 3. Would dynamic virtual circuits be worth their setup delay?
	ths := sessions.TransferThroughputsMbps(ds.Records)
	ref, err := core.ReferenceThroughputFromRecordsBps(ths)
	if err != nil {
		log.Fatal(err)
	}
	var pct []float64
	for _, setup := range []time.Duration{time.Minute, 50 * time.Millisecond} {
		cfg := core.FeasibilityConfig{
			SetupDelay:             setup,
			OverheadFactor:         10,
			ReferenceThroughputBps: ref,
		}
		res, err := cfg.Analyze(ss)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("setup %-5v: %.1f%% of sessions (carrying %.1f%% of transfers) can amortize a VC\n",
			setup, res.PercentSessions(), res.PercentTransfers())
		pct = append(pct, res.PercentSessions())
	}
	// The shape Table IV reports: a 50 ms setup delay makes strictly more
	// sessions worth a circuit than a 1 min one.
	if st.Sessions == 0 || pct[1] <= pct[0] {
		log.Fatalf("feasibility shape broken: %d sessions, %.1f%% at 1 min vs %.1f%% at 50 ms",
			st.Sessions, pct[0], pct[1])
	}
}
