// Hybridengine: the operational payoff of the paper's analysis — an
// α-flow-aware hybrid network. Transfer sessions are classified; large
// ones get dynamic virtual circuits from the IDC (falling back to
// IP-routed service when admission fails), small ones stay best-effort.
// The example then compares the α flows' throughput variance under pure
// IP service vs the hybrid, the paper's first claimed VC benefit.
//
//	go run ./examples/hybridengine
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"gftpvc/internal/alphaflow"
	"gftpvc/internal/core"
	"gftpvc/internal/netsim"
	"gftpvc/internal/oscars"
	"gftpvc/internal/simclock"
	"gftpvc/internal/stats"
	"gftpvc/internal/topo"
	"gftpvc/internal/workload"
)

// session is one batch of data to move.
type session struct {
	at    simclock.Time
	bytes float64
}

func makeSessions(rng *rand.Rand) []session {
	var out []session
	for i := 0; i < 24; i++ {
		out = append(out, session{
			at:    simclock.Time(float64(i)*400 + rng.Float64()*100),
			bytes: 20e9 + rng.Float64()*120e9, // 20-140 GB batches
		})
	}
	return out
}

// run executes the sessions plus heavy competing traffic; when engine is
// non-nil, sessions go through the hybrid decision first.
func run(seed int64, useHybrid bool) (cv float64, vcCount, ipCount int) {
	scenario := topo.NERSCORNL()
	eng := simclock.New()
	nw := netsim.New(eng, scenario.Topo)
	path, err := scenario.ForwardPath()
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	var engine *core.HybridEngine
	var binder *core.FlowBinder
	if useHybrid {
		ledger, err := oscars.NewLedger(scenario.Topo, 0.8)
		if err != nil {
			log.Fatal(err)
		}
		idc, err := oscars.NewIDC("esnet", eng, ledger, oscars.BatchedSignaling)
		if err != nil {
			log.Fatal(err)
		}
		engine, err = core.NewHybridEngine(core.HybridConfig{
			Feasibility: core.FeasibilityConfig{
				SetupDelay:             time.Minute,
				OverheadFactor:         10,
				ReferenceThroughputBps: 800e6, // Q3-like reference rate
			},
			CircuitRateBps: 2e9,
			HoldSlack:      5 * simclock.Minute,
		}, idc)
		if err != nil {
			log.Fatal(err)
		}
		binder, err = core.NewFlowBinder(nw, idc)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Competing elastic traffic: a heavy, bursty open-loop load that
	// squeezes best-effort flows — circuits only pay off when the network
	// is actually contended (a policed VC is a floor *and* a ceiling).
	for i := 0; i < 160; i++ {
		at := simclock.Time(rng.Float64() * 10000)
		size := 20e9 + rng.Float64()*120e9
		eng.MustAt(at, func() {
			if _, err := nw.StartFlow(path, size, netsim.FlowOptions{}); err != nil {
				log.Fatal(err)
			}
		})
	}

	// Compare variance over the VC-eligible (large) sessions only: the
	// small ones stay best-effort in both configurations.
	const largeBytes = 60e9
	var ths []float64
	for _, s := range makeSessions(rng) {
		s := s
		eng.MustAt(s.at, func() {
			var plan *core.Plan
			if engine != nil {
				var err error
				plan, err = engine.Decide(scenario.SrcHost, scenario.DstHost, s.bytes, eng.Now())
				if err != nil {
					log.Fatal(err)
				}
			}
			opts := netsim.FlowOptions{}
			if s.bytes >= largeBytes {
				opts.OnDone = func(f *netsim.Flow, _ simclock.Time) {
					ths = append(ths, f.ThroughputBps())
				}
			}
			// Flows start best-effort; the binder upgrades them when
			// their circuit finishes provisioning (the VC setup delay).
			f, err := nw.StartFlow(path, s.bytes, opts)
			if err != nil {
				log.Fatal(err)
			}
			if binder != nil && plan != nil {
				if err := binder.Bind(plan, f); err != nil {
					log.Fatal(err)
				}
			}
		})
	}
	eng.Run()
	s := stats.MustSummarize(ths)
	if engine != nil {
		vcCount, ipCount, _ = engine.Stats()
	}
	return s.CV(), vcCount, ipCount
}

func main() {
	// First: learn which endpoint pairs produce α flows, HNTES-style, from
	// an observed log (here the NERSC-ANL test transfers).
	redirector, err := alphaflow.NewRedirector(alphaflow.DefaultClassifier())
	if err != nil {
		log.Fatal(err)
	}
	cls := alphaflow.DefaultClassifier()
	fmt.Printf("α-flow classifier: rate >= %.0f Mbps and size >= %.0f GB\n",
		cls.MinRateBps/1e6, cls.MinSizeBytes/1e9)
	ts, err := workload.NERSCANL(3)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range ts {
		redirector.Observe(t.Record)
	}
	for _, rule := range redirector.Rules() {
		fmt.Printf("learned redirect rule: %s <-> %s (%d α flows, %.0f GB seen)\n",
			rule.Pair.Src, rule.Pair.Dst, rule.Hits, rule.BytesSeen/1e9)
	}

	cvIP, _, _ := run(11, false)
	cvHybrid, vc, ip := run(11, true)
	fmt.Printf("\nα-session throughput variance under competing traffic:\n")
	fmt.Printf("  pure IP-routed service: CV = %.3f\n", cvIP)
	fmt.Printf("  hybrid (VC for large sessions): CV = %.3f  [%d circuits, %d stayed IP]\n",
		cvHybrid, vc, ip)
	if vc == 0 || cvHybrid >= cvIP {
		log.Fatalf("hybrid did not isolate the α flows: %d circuits, CV %.3f vs %.3f under IP", vc, cvHybrid, cvIP)
	}
	fmt.Println("\nrate-guaranteed circuits isolate the α flows from competing traffic,")
	fmt.Println("cutting the throughput variance the paper's users complained about.")
}
