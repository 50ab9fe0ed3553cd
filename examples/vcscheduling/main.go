// Vcscheduling: drive the OSCARS-style IDC — advance reservations,
// admission control, constrained path selection, and the setup-delay
// difference between the deployed batched signaling (~1 min) and
// hypothetical hardware signaling (~50 ms) that Table IV sweeps.
//
//	go run ./examples/vcscheduling
package main

import (
	"fmt"
	"log"

	"gftpvc/internal/oscars"
	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

func main() {
	scenario := topo.SLACBNL()
	fmt.Printf("topology: %s, RTT %.0f ms, 10 Gbps links\n\n", scenario.Name, scenario.RTTSec*1e3)

	var delays []float64 // per signaling model, the first circuit's setup delay
	for _, model := range []struct {
		name  string
		setup oscars.SetupModel
	}{
		{"batched signaling (deployed OSCARS)", oscars.BatchedSignaling},
		{"hardware signaling (hypothetical)", oscars.HardwareSignaling},
	} {
		eng := simclock.New()
		ledger, err := oscars.NewLedger(scenario.Topo, 0.8)
		if err != nil {
			log.Fatal(err)
		}
		idc, err := oscars.NewIDC("esnet", eng, ledger, model.setup)
		if err != nil {
			log.Fatal(err)
		}
		var delay float64
		idc.OnActive = func(c *oscars.Circuit) {
			if delay == 0 {
				delay = float64(c.SetupDelay())
			}
			fmt.Printf("  t=%7.2fs circuit %d ACTIVE on %s (setup delay %.2fs)\n",
				float64(eng.Now()), c.ID, c.Path, float64(c.SetupDelay()))
		}
		idc.OnRelease = func(c *oscars.Circuit) {
			fmt.Printf("  t=%7.2fs circuit %d RELEASED\n", float64(eng.Now()), c.ID)
		}

		fmt.Println(model.name + ":")
		eng.MustAt(5, func() {
			// A user launches a transfer script and asks for a circuit
			// for immediate use — the case whose setup delay the paper
			// quantifies.
			c, err := idc.CreateReservation(oscars.Request{
				Src: scenario.SrcHost, Dst: scenario.DstHost,
				RateBps: 4e9, Start: eng.Now(), End: eng.Now().Add(10 * simclock.Minute),
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  t=%7.2fs reservation %d admitted for immediate use\n", 5.0, c.ID)

			// An advance reservation for later coexists fine.
			adv, err := idc.CreateReservation(oscars.Request{
				Src: scenario.SrcHost, Dst: scenario.DstHost,
				RateBps: 4e9, Start: eng.Now().Add(20 * simclock.Minute),
				End: eng.Now().Add(30 * simclock.Minute),
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  t=%7.2fs advance reservation %d admitted (starts in 20 min)\n", 5.0, adv.ID)

			// But a third overlapping circuit exceeds the 8 Gbps
			// reservable share and is rejected by admission control.
			if _, err := idc.CreateReservation(oscars.Request{
				Src: scenario.SrcHost, Dst: scenario.DstHost,
				RateBps: 5e9, Start: eng.Now(), End: eng.Now().Add(10 * simclock.Minute),
			}); err != nil {
				fmt.Printf("  t=%7.2fs third circuit rejected: %v\n", 5.0, err)
			} else {
				log.Fatal("a third overlapping circuit was admitted beyond the reservable share")
			}
		})
		eng.RunUntil(35 * 60)
		fmt.Println()
		delays = append(delays, delay)
	}
	if delays[0] <= delays[1] {
		log.Fatalf("setup delays %v: batched signaling must be slower than hardware signaling", delays)
	}
	interDomain()
}

// interDomain demonstrates the IDCP chain the paper describes: an
// end-to-end circuit across two providers, each running its own IDC, with
// all-or-nothing admission.
func interDomain() {
	fmt.Println("inter-domain (IDCP) chain:")
	eng := simclock.New()
	mkDomain := func(name string, nodes []topo.NodeID) *oscars.IDC {
		tp := topo.New()
		for _, n := range nodes {
			if _, err := tp.AddNode(n, topo.BackboneRouter); err != nil {
				log.Fatal(err)
			}
		}
		for i := 0; i+1 < len(nodes); i++ {
			if err := tp.AddDuplex(nodes[i], nodes[i+1], 10e9, 0.005); err != nil {
				log.Fatal(err)
			}
		}
		ledger, err := oscars.NewLedger(tp, 0.8)
		if err != nil {
			log.Fatal(err)
		}
		idc, err := oscars.NewIDC(name, eng, ledger, oscars.HardwareSignaling)
		if err != nil {
			log.Fatal(err)
		}
		return idc
	}
	esnet := mkDomain("esnet", []topo.NodeID{"slac-dtn", "esnet-core", "chicago-xp"})
	internet2 := mkDomain("internet2", []topo.NodeID{"chicago-xp", "i2-core", "bnl-dtn"})
	fed, err := oscars.NewFederation([]*oscars.IDC{esnet, internet2}, []topo.NodeID{"chicago-xp"})
	if err != nil {
		log.Fatal(err)
	}
	eng.MustAt(0, func() {
		c, err := fed.CreateReservation(oscars.Request{
			Src: "slac-dtn", Dst: "bnl-dtn",
			RateBps: 3e9, Start: eng.Now(), End: eng.Now().Add(10 * simclock.Minute),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  segment 1 (%s): %s\n", esnet.Domain, c.Segments[0].Path)
		fmt.Printf("  segment 2 (%s): %s\n", internet2.Domain, c.Segments[1].Path)
	})
	eng.RunUntil(60)
	fmt.Println("  both segments active: end-to-end 3 Gbps circuit across two providers")
}
