package netsim

// This file pins the rewritten allocation-free allocator to the behavior
// of the original allocator (the pre-optimization netsim: fresh residual
// maps, id slices and frozen/capRemaining scratch per event, full-scan
// completion scheduling with a generation counter). refNetwork below is a
// faithful port of that implementation, with the one unspecified detail —
// map iteration order — fixed to ascending flow ID so that floating-point
// accumulation order is well defined. The equivalence tests assert that
// randomized multi-flow scenarios produce bit-identical flow completion
// times and link byte counters under both engines.

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

type refFlow struct {
	id             FlowID
	path           topo.Path
	sizeBytes      float64
	remainingBytes float64
	rateCapBps     float64
	guaranteedBps  float64
	rate           float64
	start          simclock.Time
	lastUpdate     simclock.Time
	end            simclock.Time
	done           bool
	onDone         func(*refFlow, simclock.Time)
}

type refLinkState struct {
	link       *topo.Link
	bytesTotal float64
	flows      map[FlowID]*refFlow
}

type refNetwork struct {
	eng       *simclock.Engine
	flows     map[FlowID]*refFlow
	links     map[topo.LinkID]*refLinkState
	nextID    FlowID
	recalcGen uint64
}

func newRefNetwork(eng *simclock.Engine, tp *topo.Topology) *refNetwork {
	n := &refNetwork{
		eng:   eng,
		flows: make(map[FlowID]*refFlow),
		links: make(map[topo.LinkID]*refLinkState),
	}
	for _, l := range tp.Links() {
		n.links[l.ID] = &refLinkState{link: l, flows: make(map[FlowID]*refFlow)}
	}
	return n
}

func (n *refNetwork) sortedFlows() []*refFlow {
	ids := make([]FlowID, 0, len(n.flows))
	for id := range n.flows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*refFlow, len(ids))
	for i, id := range ids {
		out[i] = n.flows[id]
	}
	return out
}

func (n *refNetwork) linkBytes(id topo.LinkID) float64 {
	ls := n.links[id]
	total := ls.bytesTotal
	now := n.eng.Now()
	ids := make([]FlowID, 0, len(ls.flows))
	for fid := range ls.flows {
		ids = append(ids, fid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, fid := range ids {
		f := ls.flows[fid]
		total += f.rate / 8 * float64(now.Sub(f.lastUpdate))
	}
	return total
}

func (n *refNetwork) startFlow(path topo.Path, sizeBytes float64, opts FlowOptions, onDone func(*refFlow, simclock.Time)) *refFlow {
	n.settle()
	n.nextID++
	f := &refFlow{
		id:             n.nextID,
		path:           path,
		sizeBytes:      sizeBytes,
		remainingBytes: sizeBytes,
		rateCapBps:     opts.RateCapBps,
		guaranteedBps:  opts.GuaranteedBps,
		start:          n.eng.Now(),
		lastUpdate:     n.eng.Now(),
		onDone:         onDone,
	}
	n.flows[f.id] = f
	for _, l := range path {
		n.links[l.ID].flows[f.id] = f
	}
	n.reallocate()
	return f
}

func (n *refNetwork) stopFlow(f *refFlow) bool {
	if f == nil || n.flows[f.id] != f {
		return false
	}
	n.settle()
	n.remove(f)
	f.done = true
	f.end = n.eng.Now()
	n.reallocate()
	return true
}

func (n *refNetwork) setRateCap(f *refFlow, capBps float64) bool {
	if f == nil || n.flows[f.id] != f {
		return false
	}
	n.settle()
	f.rateCapBps = capBps
	n.reallocate()
	return true
}

func (n *refNetwork) setGuarantee(f *refFlow, guaranteedBps float64) bool {
	if f == nil || n.flows[f.id] != f {
		return false
	}
	n.settle()
	f.guaranteedBps = guaranteedBps
	n.reallocate()
	return true
}

func (n *refNetwork) settle() {
	now := n.eng.Now()
	for _, f := range n.sortedFlows() {
		dt := float64(now.Sub(f.lastUpdate))
		if dt <= 0 {
			f.lastUpdate = now
			continue
		}
		moved := f.rate / 8 * dt
		if !math.IsInf(f.remainingBytes, 1) {
			if moved > f.remainingBytes {
				moved = f.remainingBytes
			}
			f.remainingBytes -= moved
		}
		for _, l := range f.path {
			n.links[l.ID].bytesTotal += moved
		}
		f.lastUpdate = now
	}
}

func (n *refNetwork) remove(f *refFlow) {
	delete(n.flows, f.id)
	for _, l := range f.path {
		delete(n.links[l.ID].flows, f.id)
	}
}

func (n *refNetwork) reallocate() {
	residual := make(map[topo.LinkID]float64, len(n.links))
	for id, ls := range n.links {
		residual[id] = ls.link.CapacityBps
	}
	var bestEffort []*refFlow
	for _, f := range n.sortedFlows() {
		if f.guaranteedBps > 0 {
			r := f.guaranteedBps
			if f.rateCapBps > 0 && f.rateCapBps < r {
				r = f.rateCapBps
			}
			for _, l := range f.path {
				if avail := residual[l.ID]; r > avail {
					r = avail
				}
			}
			f.rate = r
			for _, l := range f.path {
				residual[l.ID] -= r
			}
		} else {
			f.rate = 0
			bestEffort = append(bestEffort, f)
		}
	}
	n.maxMin(bestEffort, residual)
	n.scheduleCompletion()
}

func (n *refNetwork) maxMin(flows []*refFlow, residual map[topo.LinkID]float64) {
	if len(flows) == 0 {
		return
	}
	frozen := make([]bool, len(flows))
	count := make(map[topo.LinkID]int)
	for _, f := range flows {
		for _, l := range f.path {
			count[l.ID]++
		}
	}
	capRemaining := make([]float64, len(flows))
	for i, f := range flows {
		if f.rateCapBps > 0 {
			capRemaining[i] = f.rateCapBps
		} else {
			capRemaining[i] = math.Inf(1)
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		share := math.Inf(1)
		for id, c := range count {
			if c <= 0 {
				continue
			}
			if s := residual[id] / float64(c); s < share {
				share = s
			}
		}
		for i := range flows {
			if !frozen[i] && capRemaining[i] < share {
				share = capRemaining[i]
			}
		}
		if math.IsInf(share, 1) || share < 0 {
			break
		}
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			f.rate += share
			capRemaining[i] -= share
			for _, l := range f.path {
				residual[l.ID] -= share
			}
		}
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			saturated := capRemaining[i] <= eps
			if !saturated {
				for _, l := range f.path {
					if residual[l.ID] <= eps*f.rate+eps {
						saturated = true
						break
					}
				}
			}
			if saturated {
				frozen[i] = true
				unfrozen--
				for _, l := range f.path {
					count[l.ID]--
				}
			}
		}
		if share <= eps {
			for i := range flows {
				if !frozen[i] {
					frozen[i] = true
					unfrozen--
				}
			}
		}
	}
}

func (n *refNetwork) scheduleCompletion() {
	n.recalcGen++
	gen := n.recalcGen
	soonest := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 || math.IsInf(f.remainingBytes, 1) {
			continue
		}
		t := f.remainingBytes * 8 / f.rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	n.eng.MustAfter(simclock.Duration(soonest), func() {
		if gen != n.recalcGen {
			return
		}
		n.completeFinished()
	})
}

func (n *refNetwork) completeFinished() {
	n.settle()
	now := n.eng.Now()
	var finished []*refFlow
	for _, f := range n.flows {
		if f.remainingBytes <= 0.5 {
			finished = append(finished, f)
		}
	}
	sort.Slice(finished, func(i, j int) bool { return finished[i].id < finished[j].id })
	for _, f := range finished {
		f.remainingBytes = 0
		f.done = true
		f.end = now
		n.remove(f)
	}
	n.reallocate()
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone(f, now)
		}
	}
}

// --- scripted scenarios driven against both engines ---

const (
	opStart = iota
	opStop
	opSetCap
	opSetGuarantee
)

type scriptOp struct {
	at        simclock.Time
	kind      int
	flow      int // flow index for stop/setcap/setguarantee
	path      int // path index for start
	size      float64
	cap       float64
	guarantee float64
}

type scenario struct {
	tp    *topo.Topology
	paths []topo.Path
	ops   []scriptOp
}

// buildScenario makes a topology with two chains sharing a middle link
// plus a disjoint pair, and a randomized operation script over it.
func buildScenario(seed int64) scenario {
	rng := rand.New(rand.NewSource(seed))
	tp := topo.New()
	for _, id := range []topo.NodeID{"a", "b", "c", "d", "x", "y"} {
		tp.AddNode(id, topo.Host)
	}
	tp.AddDuplex("a", "b", (1+rng.Float64()*9)*1e9, 0.001)
	tp.AddDuplex("b", "c", (1+rng.Float64()*9)*1e9, 0.002)
	tp.AddDuplex("c", "d", (1+rng.Float64()*9)*1e9, 0.001)
	tp.AddDuplex("x", "y", (1+rng.Float64()*4)*1e9, 0.001)
	var paths []topo.Path
	for _, pair := range [][2]topo.NodeID{
		{"a", "c"}, {"b", "d"}, {"a", "d"}, {"c", "a"}, {"x", "y"},
	} {
		p, err := tp.ShortestPath(pair[0], pair[1])
		if err != nil {
			panic(err)
		}
		paths = append(paths, p)
	}
	nFlows := 15 + rng.Intn(20)
	var ops []scriptOp
	for i := 0; i < nFlows; i++ {
		op := scriptOp{
			at:   simclock.Time(rng.Float64() * 40),
			kind: opStart,
			flow: i,
			path: rng.Intn(len(paths)),
			size: 1e8 + rng.Float64()*8e9,
		}
		if rng.Float64() < 0.15 {
			op.size = math.Inf(1) // background stream
		}
		if rng.Float64() < 0.35 {
			op.cap = 1e8 + rng.Float64()*2e9
		}
		if rng.Float64() < 0.25 {
			op.guarantee = 1e8 + rng.Float64()*8e8
		}
		ops = append(ops, op)
		// Mid-flight churn: stops, cap changes, guarantee up/downgrades.
		if rng.Float64() < 0.4 {
			ops = append(ops, scriptOp{
				at:   op.at + simclock.Time(rng.Float64()*30),
				kind: opSetCap, flow: i, cap: rng.Float64() * 3e9,
			})
		}
		if rng.Float64() < 0.3 {
			ops = append(ops, scriptOp{
				at:   op.at + simclock.Time(rng.Float64()*30),
				kind: opSetGuarantee, flow: i, guarantee: rng.Float64() * 1e9,
			})
		}
		if math.IsInf(op.size, 1) || rng.Float64() < 0.15 {
			ops = append(ops, scriptOp{
				at:   op.at + simclock.Time(5+rng.Float64()*60),
				kind: opStop, flow: i,
			})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return scenario{tp: tp, paths: paths, ops: ops}
}

type completionRecord struct {
	flow int
	at   simclock.Time
}

// runNew drives the optimized Network through the script.
func runNew(t *testing.T, sc scenario) ([]completionRecord, []simclock.Time, map[topo.LinkID]float64) {
	t.Helper()
	eng := simclock.New()
	nw := New(eng, sc.tp)
	flows := make([]*Flow, len(sc.ops))
	ends := make([]simclock.Time, len(sc.ops))
	var completions []completionRecord
	for _, op := range sc.ops {
		op := op
		eng.MustAt(op.at, func() {
			switch op.kind {
			case opStart:
				idx := op.flow
				f, err := nw.StartFlow(sc.paths[op.path], op.size, FlowOptions{
					RateCapBps:    op.cap,
					GuaranteedBps: op.guarantee,
					OnDone: func(f *Flow, at simclock.Time) {
						completions = append(completions, completionRecord{idx, at})
						ends[idx] = at
					},
				})
				if err != nil {
					t.Error(err)
					return
				}
				flows[idx] = f
			case opStop:
				if f := flows[op.flow]; f != nil {
					nw.stopFlow(f) // error (already done) intentionally ignored
				}
			case opSetCap:
				if f := flows[op.flow]; f != nil {
					nw.SetRateCap(f, op.cap)
				}
			case opSetGuarantee:
				if f := flows[op.flow]; f != nil {
					nw.SetGuarantee(f, op.guarantee)
				}
			}
		})
	}
	eng.Run()
	bytes := map[topo.LinkID]float64{}
	for _, l := range sc.tp.Links() {
		b, err := nw.LinkBytes(l.ID)
		if err != nil {
			t.Fatal(err)
		}
		bytes[l.ID] = b
	}
	return completions, ends, bytes
}

// runRef drives the reference (original-algorithm) network through the
// same script.
func runRef(t *testing.T, sc scenario) ([]completionRecord, []simclock.Time, map[topo.LinkID]float64) {
	t.Helper()
	eng := simclock.New()
	nw := newRefNetwork(eng, sc.tp)
	flows := make([]*refFlow, len(sc.ops))
	ends := make([]simclock.Time, len(sc.ops))
	var completions []completionRecord
	for _, op := range sc.ops {
		op := op
		eng.MustAt(op.at, func() {
			switch op.kind {
			case opStart:
				idx := op.flow
				flows[idx] = nw.startFlow(sc.paths[op.path], op.size, FlowOptions{
					RateCapBps:    op.cap,
					GuaranteedBps: op.guarantee,
				}, func(_ *refFlow, at simclock.Time) {
					completions = append(completions, completionRecord{idx, at})
					ends[idx] = at
				})
			case opStop:
				if f := flows[op.flow]; f != nil {
					nw.stopFlow(f)
				}
			case opSetCap:
				if f := flows[op.flow]; f != nil {
					nw.setRateCap(f, op.cap)
				}
			case opSetGuarantee:
				if f := flows[op.flow]; f != nil {
					nw.setGuarantee(f, op.guarantee)
				}
			}
		})
	}
	eng.Run()
	bytes := map[topo.LinkID]float64{}
	for _, l := range sc.tp.Links() {
		bytes[l.ID] = nw.linkBytes(l.ID)
	}
	return completions, ends, bytes
}

// TestAllocatorEquivalence asserts that the optimized allocator and the
// original algorithm produce bit-identical completion times, completion
// ordering, and link byte counters on randomized scenarios with arrivals,
// departures, caps, guarantees, and mid-flight churn.
func TestAllocatorEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		sc := buildScenario(seed)
		gotC, gotE, gotB := runNew(t, sc)
		wantC, wantE, wantB := runRef(t, sc)
		if len(gotC) != len(wantC) {
			t.Fatalf("seed %d: %d completions, reference %d", seed, len(gotC), len(wantC))
		}
		for i := range wantC {
			if gotC[i] != wantC[i] {
				t.Errorf("seed %d: completion %d = flow %d at %v, reference flow %d at %v",
					seed, i, gotC[i].flow, gotC[i].at, wantC[i].flow, wantC[i].at)
			}
		}
		for i := range wantE {
			if gotE[i] != wantE[i] {
				t.Errorf("seed %d: flow %d end = %.17g, reference %.17g",
					seed, i, float64(gotE[i]), float64(wantE[i]))
			}
		}
		for id, want := range wantB {
			if got := gotB[id]; got != want {
				t.Errorf("seed %d: link %s bytes = %.17g, reference %.17g", seed, id, got, want)
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

// TestAllocatorEquivalenceRates spot-checks that instantaneous rate
// assignments also agree mid-flight, not just the end state.
func TestAllocatorEquivalenceRates(t *testing.T) {
	sc := buildScenario(99)
	engA := simclock.New()
	nwA := New(engA, sc.tp)
	engB := simclock.New()
	nwB := newRefNetwork(engB, sc.tp)
	flowsA := make([]*Flow, len(sc.ops))
	flowsB := make([]*refFlow, len(sc.ops))
	for _, op := range sc.ops {
		op := op
		if op.kind != opStart {
			continue
		}
		engA.MustAt(op.at, func() {
			f, err := nwA.StartFlow(sc.paths[op.path], op.size, FlowOptions{
				RateCapBps: op.cap, GuaranteedBps: op.guarantee,
			})
			if err != nil {
				t.Error(err)
				return
			}
			flowsA[op.flow] = f
		})
		engB.MustAt(op.at, func() {
			flowsB[op.flow] = nwB.startFlow(sc.paths[op.path], op.size, FlowOptions{
				RateCapBps: op.cap, GuaranteedBps: op.guarantee,
			}, nil)
		})
	}
	for _, deadline := range []simclock.Time{10, 20, 30, 50, 80} {
		engA.RunUntil(deadline)
		engB.RunUntil(deadline)
		for i := range flowsA {
			if flowsA[i] == nil || flowsB[i] == nil {
				continue
			}
			if flowsA[i].rate != flowsB[i].rate {
				t.Fatalf("t=%v flow %d: rate %.17g, reference %.17g",
					deadline, i, flowsA[i].rate, flowsB[i].rate)
			}
			if flowsA[i].remainingBytes != flowsB[i].remainingBytes {
				t.Fatalf("t=%v flow %d: remaining %.17g, reference %.17g",
					deadline, i, flowsA[i].remainingBytes, flowsB[i].remainingBytes)
			}
		}
	}
}
