// Package netsim is a discrete-event, fluid-flow wide-area network
// simulator. Flows traverse a topo.Path and share link capacity by
// progressive-filling max–min fairness; virtual-circuit flows receive a
// reserved (guaranteed) rate ahead of best-effort flows, modelling the
// per-VC virtual queues OSCARS configures on router interfaces. Every
// directed link accumulates a byte counter, which internal/snmp samples in
// 30-second bins exactly as ESnet's SNMP collection does.
//
// A fluid-flow model (rates, not packets) is the standard substitution for
// packet-level simulation when the quantities of interest are transfer
// throughput, link utilization and byte counts — which is all the paper's
// analyses consume. Packet losses in these networks are rare (one of the
// paper's findings), so the fluid approximation is faithful.
//
// The allocator is the hot path of every paper exhibit (reallocate runs on
// each flow arrival, departure, cap change and guarantee change), so it is
// engineered to be allocation-free in steady state: links live in dense
// slices indexed by a per-network link index, the active flows form a
// persistent registry sorted by flow ID, and all per-reallocation working
// state (residual capacities, per-link flow counts, frozen flags, cap
// remainders) is kept in scratch buffers on the Network that are resized
// only when the live population grows. Projected completion times live in
// a min-heap with lazy invalidation instead of being rescanned and
// re-armed on every event.
package netsim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gftpvc/internal/simclock"
	"gftpvc/internal/topo"
)

// FlowID identifies a flow within one Network.
type FlowID int64

// Flow is a data transfer (or background traffic stream) in flight.
type Flow struct {
	ID   FlowID
	Path topo.Path

	// sizeBytes is the total size; infinite for background flows.
	sizeBytes      float64
	remainingBytes float64

	// rateCapBps is a source-side cap (TCP window limit, disk rate, host
	// contention share); 0 means uncapped.
	rateCapBps float64

	// guaranteedBps is the VC reservation; 0 for best-effort flows.
	guaranteedBps float64

	rate  float64 // current allocated rate
	start simclock.Time
	end   simclock.Time
	done  bool

	// links[i] is the dense index of Path[i] in the owning Network,
	// resolved once at StartFlow so the allocator never touches the
	// map[topo.LinkID] during reallocation.
	links []int

	// projSeq/projAt implement lazy invalidation of completion-heap
	// entries: an entry is live only while its seq matches projSeq and
	// the flow is still registered.
	projSeq   uint64
	projAt    simclock.Time
	projValid bool

	onDone func(*Flow, simclock.Time)
}

// Done reports whether the flow has completed.
func (f *Flow) Done() bool { return f.done }

// Start returns the virtual time the flow started.
func (f *Flow) Start() simclock.Time { return f.start }

// End returns the completion time; valid only when Done.
func (f *Flow) End() simclock.Time { return f.end }

// DurationSec returns the flow duration in seconds; valid only when Done.
func (f *Flow) DurationSec() float64 { return float64(f.end.Sub(f.start)) }

// ThroughputBps returns size/duration in bits per second; valid only when
// Done and the duration is positive.
func (f *Flow) ThroughputBps() float64 {
	d := f.DurationSec()
	if !f.done || d <= 0 {
		return 0
	}
	return f.sizeBytes * 8 / d
}

// FlowOptions configures StartFlow.
type FlowOptions struct {
	// RateCapBps limits the source rate; 0 = uncapped.
	RateCapBps float64
	// GuaranteedBps is the VC reserved rate; 0 = best-effort. The caller
	// (the OSCARS layer) is responsible for having admitted the
	// reservation; the network gives the flow priority up to this rate.
	GuaranteedBps float64
	// OnDone runs when the flow completes, inside the event loop.
	OnDone func(*Flow, simclock.Time)
}

// linkState is the per-link simulation state, stored densely and indexed
// by the network's link index.
type linkState struct {
	link       *topo.Link
	bytesTotal float64 // cumulative bytes carried (all flows)
	flows      []*Flow // active flows crossing, ascending flow ID
}

// completion is one entry of the projected-completion min-heap.
type completion struct {
	at  simclock.Time
	f   *Flow
	seq uint64
}

// Network simulates flows over a topology. All methods must be called from
// the simulation goroutine (typically from within engine events or between
// engine runs); Network is not safe for concurrent use.
type Network struct {
	eng    *simclock.Engine
	topo   *topo.Topology
	flows  map[FlowID]*Flow
	nextID FlowID

	// Dense link state: links[i] holds the link whose ID sorts i-th;
	// linkIndex resolves a LinkID to its dense index.
	links     []linkState
	linkIndex map[topo.LinkID]int

	// flowList is the persistent flow registry, sorted ascending by ID
	// (IDs are monotonic, so StartFlow appends and remove splices).
	flowList []*Flow

	// settledAt is the instant up to which all in-flight flows have been
	// integrated. Every active flow is settled at the same instant, so a
	// single network-level timestamp replaces per-flow bookkeeping.
	settledAt simclock.Time

	// Scratch buffers reused across reallocations; they grow to the peak
	// live population and are never shrunk.
	residual   []float64 // per link: unallocated capacity
	linkCount  []int     // per link: unfrozen best-effort flows crossing
	bestEffort []*Flow
	frozen     []bool
	capRem     []float64
	finished   []*Flow

	// Projected-completion min-heap with lazy invalidation, plus the
	// state of the single armed engine event. projCount tracks flows with
	// a live projection so the heap can be compacted when superseded
	// entries dominate it.
	compHeap  []completion
	projCount int
	armed     bool
	armedAt   simclock.Time
	armedGen  uint64
}

// New creates a network simulator over the given topology and engine.
func New(eng *simclock.Engine, tp *topo.Topology) *Network {
	links := tp.Links()
	n := &Network{
		eng:       eng,
		topo:      tp,
		flows:     make(map[FlowID]*Flow),
		links:     make([]linkState, len(links)),
		linkIndex: make(map[topo.LinkID]int, len(links)),
		residual:  make([]float64, len(links)),
		linkCount: make([]int, len(links)),
		settledAt: eng.Now(),
	}
	for i, l := range links {
		n.links[i] = linkState{link: l}
		n.linkIndex[l.ID] = i
	}
	return n
}

// Engine returns the underlying event engine.
func (n *Network) Engine() *simclock.Engine { return n.eng }

// Topology returns the underlying topology.
func (n *Network) Topology() *topo.Topology { return n.topo }

// LinkBytes returns the cumulative bytes carried by the directed link, as
// of the current virtual time (integrating in-flight flows up to now).
func (n *Network) LinkBytes(id topo.LinkID) (float64, error) {
	li, ok := n.linkIndex[id]
	if !ok {
		return 0, fmt.Errorf("netsim: unknown link %s", id)
	}
	ls := &n.links[li]
	total := ls.bytesTotal
	if dt := float64(n.eng.Now().Sub(n.settledAt)); dt > 0 {
		for _, f := range ls.flows {
			total += f.rate / 8 * dt
		}
	}
	return total, nil
}

// StartFlow injects a flow of sizeBytes along path, beginning now. For a
// background stream of unbounded duration, pass math.Inf(1) as sizeBytes.
func (n *Network) StartFlow(path topo.Path, sizeBytes float64, opts FlowOptions) (*Flow, error) {
	if len(path) == 0 {
		return nil, errors.New("netsim: empty path")
	}
	if sizeBytes <= 0 {
		return nil, errors.New("netsim: flow size must be positive")
	}
	if opts.RateCapBps < 0 || opts.GuaranteedBps < 0 {
		return nil, errors.New("netsim: negative rate")
	}
	links := make([]int, len(path))
	for i, l := range path {
		li, ok := n.linkIndex[l.ID]
		if !ok {
			return nil, fmt.Errorf("netsim: path link %s not in network", l.ID)
		}
		links[i] = li
	}
	n.settle()
	n.nextID++
	f := &Flow{
		ID:             n.nextID,
		Path:           path,
		sizeBytes:      sizeBytes,
		remainingBytes: sizeBytes,
		rateCapBps:     opts.RateCapBps,
		guaranteedBps:  opts.GuaranteedBps,
		start:          n.eng.Now(),
		links:          links,
		onDone:         opts.OnDone,
	}
	n.flows[f.ID] = f
	n.flowList = append(n.flowList, f) // IDs are monotonic: stays sorted
	for _, li := range links {
		n.links[li].flows = append(n.links[li].flows, f)
	}
	n.reallocate()
	return f, nil
}

// stopFlow removes a flow (typically a background stream) before it
// completes, through the same settle, remove and reallocate steps a
// completion takes. Its OnDone callback is not invoked.
func (n *Network) stopFlow(f *Flow) error {
	if f == nil || n.flows[f.ID] != f {
		return errors.New("netsim: flow not active")
	}
	n.settle()
	n.remove(f)
	f.done = true
	f.end = n.eng.Now()
	n.reallocate()
	return nil
}

// SetRateCap changes a flow's source-side rate cap and reallocates. A cap
// of 0 removes the limit.
func (n *Network) SetRateCap(f *Flow, capBps float64) error {
	if f == nil || n.flows[f.ID] != f {
		return errors.New("netsim: flow not active")
	}
	if capBps < 0 {
		return errors.New("netsim: negative rate cap")
	}
	n.settle()
	f.rateCapBps = capBps
	n.reallocate()
	return nil
}

// SetGuarantee changes a flow's reserved rate mid-flight and reallocates:
// a transfer that started best-effort is upgraded when its circuit
// finishes provisioning (the VC setup delay), and downgraded to 0 when
// the circuit is released.
func (n *Network) SetGuarantee(f *Flow, guaranteedBps float64) error {
	if f == nil || n.flows[f.ID] != f {
		return errors.New("netsim: flow not active")
	}
	if guaranteedBps < 0 {
		return errors.New("netsim: negative guarantee")
	}
	n.settle()
	f.guaranteedBps = guaranteedBps
	n.reallocate()
	return nil
}

// settle integrates all in-flight flows up to the current instant,
// crediting link byte counters and decrementing remaining sizes. All
// flows share the settlement timestamp, so a repeated settle at the same
// instant (arrival bursts, cap re-draws) returns immediately, and flows
// allocated a zero rate are skipped entirely.
func (n *Network) settle() {
	now := n.eng.Now()
	dt := float64(now.Sub(n.settledAt))
	if dt <= 0 {
		n.settledAt = now
		return
	}
	for _, f := range n.flowList {
		if f.rate == 0 {
			continue
		}
		moved := f.rate / 8 * dt
		if !math.IsInf(f.remainingBytes, 1) {
			if moved > f.remainingBytes {
				moved = f.remainingBytes
			}
			f.remainingBytes -= moved
		}
		for _, li := range f.links {
			n.links[li].bytesTotal += moved
		}
	}
	n.settledAt = now
}

// remove detaches a flow from the network, its registry slot, and its
// links, and invalidates any completion-heap entries it owns.
func (n *Network) remove(f *Flow) {
	delete(n.flows, f.ID)
	n.flowList = spliceOut(n.flowList, f)
	for _, li := range f.links {
		n.links[li].flows = spliceOut(n.links[li].flows, f)
	}
	if f.projValid {
		f.projValid = false
		n.projCount--
	}
	f.projSeq++
}

// spliceOut removes f from an ID-sorted flow slice, preserving order.
func spliceOut(list []*Flow, f *Flow) []*Flow {
	i := sort.Search(len(list), func(i int) bool { return list[i].ID >= f.ID })
	if i >= len(list) || list[i] != f {
		return list
	}
	copy(list[i:], list[i+1:])
	list[len(list)-1] = nil
	return list[:len(list)-1]
}

const eps = 1e-6

// reallocate recomputes all flow rates and schedules the next completion.
//
// Allocation proceeds in two classes, mirroring router packet schedulers
// configured for VCs: guaranteed flows first receive min(guarantee, cap),
// then best-effort flows share the residual capacity max–min fairly, with
// each flow's source cap modelled as a private virtual link.
func (n *Network) reallocate() {
	for i := range n.links {
		n.residual[i] = n.links[i].link.CapacityBps
	}
	be := n.bestEffort[:0]
	for _, f := range n.flowList { // ascending ID: deterministic
		if f.guaranteedBps > 0 {
			r := f.guaranteedBps
			if f.rateCapBps > 0 && f.rateCapBps < r {
				r = f.rateCapBps
			}
			// A guarantee can never exceed the line rate of any hop.
			for _, li := range f.links {
				if avail := n.residual[li]; r > avail {
					r = avail
				}
			}
			f.rate = r
			for _, li := range f.links {
				n.residual[li] -= r
			}
		} else {
			f.rate = 0
			be = append(be, f)
		}
	}
	n.bestEffort = be
	n.maxMin(be)
	n.scheduleCompletion()
}

// maxMin runs progressive filling over the best-effort flows given the
// residual link capacities in n.residual. Each capped flow contributes a
// virtual single-flow link of capacity equal to its cap. All working
// state lives in scratch buffers on the Network.
func (n *Network) maxMin(flows []*Flow) {
	if len(flows) == 0 {
		return
	}
	if cap(n.frozen) < len(flows) {
		n.frozen = make([]bool, len(flows))
		n.capRem = make([]float64, len(flows))
	}
	frozen := n.frozen[:len(flows)]
	capRem := n.capRem[:len(flows)]
	// count of unfrozen flows per link
	count := n.linkCount
	for i := range count {
		count[i] = 0
	}
	for i, f := range flows {
		for _, li := range f.links {
			count[li]++
		}
		frozen[i] = false
		if f.rateCapBps > 0 {
			capRem[i] = f.rateCapBps
		} else {
			capRem[i] = math.Inf(1)
		}
	}
	unfrozen := len(flows)
	for unfrozen > 0 {
		// Bottleneck share: min over real links and per-flow caps.
		share := math.Inf(1)
		for li, c := range count {
			if c <= 0 {
				continue
			}
			if s := n.residual[li] / float64(c); s < share {
				share = s
			}
		}
		for i := range flows {
			if !frozen[i] && capRem[i] < share {
				share = capRem[i]
			}
		}
		if math.IsInf(share, 1) || share < 0 {
			break
		}
		// Raise all unfrozen flows by the share.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			f.rate += share
			capRem[i] -= share
			for _, li := range f.links {
				n.residual[li] -= share
			}
		}
		// Freeze flows that hit their cap or cross a saturated link.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			saturated := capRem[i] <= eps
			if !saturated {
				for _, li := range f.links {
					if n.residual[li] <= eps*f.rate+eps {
						saturated = true
						break
					}
				}
			}
			if saturated {
				frozen[i] = true
				unfrozen--
				for _, li := range f.links {
					count[li]--
				}
			}
		}
		if share <= eps {
			// No progress is possible (e.g. residual already ~0);
			// freeze everything that remains to terminate.
			for i := range flows {
				if !frozen[i] {
					frozen[i] = true
					unfrozen--
				}
			}
		}
	}
}

// scheduleCompletion refreshes the projected completion time of every
// flow whose projection moved, then arms (at most) one engine event at
// the earliest live projection. Superseded heap entries are not removed
// eagerly; they are skipped when they surface at the top (lazy
// invalidation via the per-flow projection sequence number).
func (n *Network) scheduleCompletion() {
	now := n.eng.Now()
	for _, f := range n.flowList {
		if f.rate <= 0 || math.IsInf(f.remainingBytes, 1) {
			if f.projValid {
				f.projValid = false
				f.projSeq++
				n.projCount--
			}
			continue
		}
		at := now.Add(simclock.Duration(f.remainingBytes * 8 / f.rate))
		if f.projValid && f.projAt == at {
			continue // the live heap entry is still correct
		}
		if !f.projValid {
			f.projValid = true
			n.projCount++
		}
		f.projSeq++
		f.projAt = at
		n.heapPush(completion{at: at, f: f, seq: f.projSeq})
	}
	if len(n.compHeap) > 2*n.projCount+64 {
		n.compactHeap()
	}
	n.armNext()
}

// compactHeap drops every superseded entry in place and re-heapifies,
// bounding the heap at roughly twice the live projection count.
func (n *Network) compactHeap() {
	live := n.compHeap[:0]
	for _, c := range n.compHeap {
		if c.f.projValid && c.seq == c.f.projSeq {
			live = append(live, c)
		}
	}
	for i := len(live); i < len(n.compHeap); i++ {
		n.compHeap[i] = completion{}
	}
	n.compHeap = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		n.siftDown(i)
	}
}

// armNext pops dead heap entries and arms a single engine event at the
// earliest live projection, unless one is already armed for that instant.
func (n *Network) armNext() {
	for len(n.compHeap) > 0 {
		top := n.compHeap[0]
		if !top.f.projValid || top.seq != top.f.projSeq {
			n.heapPop()
			continue
		}
		break
	}
	if len(n.compHeap) == 0 {
		if n.armed { // pending event is for a dead projection
			n.armed = false
			n.armedGen++
		}
		return
	}
	at := n.compHeap[0].at
	if n.armed && n.armedAt == at {
		return // the pending event already covers this instant
	}
	n.armedGen++
	gen := n.armedGen
	n.armed = true
	n.armedAt = at
	n.eng.MustAt(at, func() {
		if !n.armed || gen != n.armedGen {
			return
		}
		n.armed = false
		n.completeFinished()
	})
}

// completeFinished settles, finalizes all flows whose remaining bytes have
// reached zero, and reallocates.
func (n *Network) completeFinished() {
	n.settle()
	now := n.eng.Now()
	finished := n.finished[:0]
	for _, f := range n.flowList { // ascending ID: deterministic
		if f.remainingBytes <= 0.5 { // sub-byte residue from float rounding
			finished = append(finished, f)
		}
	}
	for _, f := range finished {
		f.remainingBytes = 0
		f.done = true
		f.end = now
		n.remove(f)
	}
	n.finished = finished
	n.reallocate()
	for _, f := range finished {
		if f.onDone != nil {
			f.onDone(f, now)
		}
	}
}

// heapPush inserts a completion entry, ordered by time.
func (n *Network) heapPush(c completion) {
	n.compHeap = append(n.compHeap, c)
	i := len(n.compHeap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if n.compHeap[i].at >= n.compHeap[parent].at {
			break
		}
		n.compHeap[i], n.compHeap[parent] = n.compHeap[parent], n.compHeap[i]
		i = parent
	}
}

// heapPop removes the earliest completion entry.
func (n *Network) heapPop() {
	last := len(n.compHeap) - 1
	n.compHeap[0] = n.compHeap[last]
	n.compHeap[last] = completion{}
	n.compHeap = n.compHeap[:last]
	n.siftDown(0)
}

// siftDown restores the heap invariant below index i.
func (n *Network) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(n.compHeap) && n.compHeap[l].at < n.compHeap[smallest].at {
			smallest = l
		}
		if r < len(n.compHeap) && n.compHeap[r].at < n.compHeap[smallest].at {
			smallest = r
		}
		if smallest == i {
			return
		}
		n.compHeap[i], n.compHeap[smallest] = n.compHeap[smallest], n.compHeap[i]
		i = smallest
	}
}
