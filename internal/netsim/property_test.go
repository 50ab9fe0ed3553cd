package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// buildRandomChain creates a 2-4 hop chain with random capacities.
func buildRandomChain(rng *rand.Rand) (*topo.Topology, topo.Path) {
	tp := topo.New()
	hops := 2 + rng.Intn(3)
	var nodes []topo.NodeID
	for i := 0; i <= hops; i++ {
		id := topo.NodeID(string(rune('a' + i)))
		tp.AddNode(id, topo.Host)
		nodes = append(nodes, id)
	}
	for i := 0; i < hops; i++ {
		cap := (1 + rng.Float64()*9) * 1e9
		tp.AddDuplex(nodes[i], nodes[i+1], cap, 0.001)
	}
	p, _ := tp.ShortestPath(nodes[0], nodes[len(nodes)-1])
	return tp, p
}

// Property: every finite flow completes, moves exactly its size, and
// link byte counters equal the sum of completed flow sizes.
func TestByteConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := simclock.New()
		tp, path := buildRandomChain(rng)
		nw := New(eng, tp)
		n := 3 + rng.Intn(15)
		totalBytes := 0.0
		done := 0
		for i := 0; i < n; i++ {
			size := 1e6 + rng.Float64()*5e9
			totalBytes += size
			at := simclock.Time(rng.Float64() * 50)
			var opts FlowOptions
			if rng.Float64() < 0.3 {
				opts.RateCapBps = 1e8 + rng.Float64()*2e9
			}
			if rng.Float64() < 0.2 {
				opts.GuaranteedBps = 1e8 + rng.Float64()*5e8
			}
			opts.OnDone = func(*Flow, simclock.Time) { done++ }
			eng.MustAt(at, func() {
				if _, err := nw.StartFlow(path, size, opts); err != nil {
					t.Error(err)
				}
			})
		}
		eng.Run()
		if done != n {
			return false
		}
		for _, l := range path {
			b, err := nw.LinkBytes(l.ID)
			if err != nil {
				return false
			}
			if math.Abs(b-totalBytes) > 1+totalBytes*1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: at the moment flows are admitted, the summed allocation on
// each link never exceeds its capacity.
func TestCapacityRespectedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := simclock.New()
		tp, path := buildRandomChain(rng)
		nw := New(eng, tp)
		var flows []*Flow
		ok := true
		check := func() {
			perLink := map[topo.LinkID]float64{}
			for _, fl := range flows {
				if fl.Done() {
					continue
				}
				for _, l := range fl.Path {
					perLink[l.ID] += fl.rate
				}
			}
			for id, sum := range perLink {
				if sum > linkCap(tp, id)*(1+1e-6) {
					ok = false
				}
			}
		}
		for i := 0; i < 12; i++ {
			at := simclock.Time(rng.Float64() * 20)
			size := 1e8 + rng.Float64()*1e10
			eng.MustAt(at, func() {
				fl, err := nw.StartFlow(path, size, FlowOptions{})
				if err != nil {
					ok = false
					return
				}
				flows = append(flows, fl)
				check()
			})
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func linkCap(tp *topo.Topology, id topo.LinkID) float64 {
	for _, l := range tp.Links() {
		if l.ID == id {
			return l.CapacityBps
		}
	}
	return 0
}

// Property: work conservation on the bottleneck — with at least one
// uncapped, non-guaranteed flow active, the path's first link is fully
// allocated or the flow is bottlenecked elsewhere.
func TestWorkConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		eng := simclock.New()
		tp, path := buildRandomChain(rng)
		nw := New(eng, tp)
		n := 1 + rng.Intn(6)
		var flows []*Flow
		for i := 0; i < n; i++ {
			fl, err := nw.StartFlow(path, 1e12, FlowOptions{})
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, fl)
		}
		total := 0.0
		for _, fl := range flows {
			total += fl.rate
		}
		if math.Abs(total-path.BottleneckBps()) > 1e3 {
			t.Fatalf("trial %d: uncapped flows leave bottleneck unsaturated: %v of %v",
				trial, total, path.BottleneckBps())
		}
	}
}
