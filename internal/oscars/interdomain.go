package oscars

import (
	"errors"
	"fmt"

	"gftpvc/internal/topo"
)

// Federation chains reservations across administrative domains, modelling
// the Inter-Domain Controller Protocol (IDCP) the paper describes: each
// domain runs its own IDC over its own topology, adjacent domains share a
// border node by name, and an end-to-end circuit is the concatenation of
// per-domain segments, all admitted or none (the static-circuit
// alternative "does not scale as the number of providers increases", which
// is exactly why this dynamic chain exists).
type Federation struct {
	// domains in path order from source side to destination side.
	domains []*IDC
	// borders[i] is the node shared by domains[i] and domains[i+1].
	borders []topo.NodeID
}

// NewFederation builds a federation from domains in path order and the
// border nodes joining consecutive domains. len(borders) must equal
// len(domains)-1, and each border must exist in both adjacent topologies.
func NewFederation(domains []*IDC, borders []topo.NodeID) (*Federation, error) {
	if len(domains) < 2 {
		return nil, errors.New("oscars: federation needs at least two domains")
	}
	if len(borders) != len(domains)-1 {
		return nil, fmt.Errorf("oscars: %d domains need %d borders, got %d",
			len(domains), len(domains)-1, len(borders))
	}
	for i, b := range borders {
		left := domains[i].Ledger().Topology()
		right := domains[i+1].Ledger().Topology()
		if left.Node(b) == nil || right.Node(b) == nil {
			return nil, fmt.Errorf("oscars: border %s missing from domain %d or %d", b, i, i+1)
		}
	}
	return &Federation{domains: domains, borders: borders}, nil
}

// InterDomainCircuit is an end-to-end circuit composed of per-domain
// segments.
type InterDomainCircuit struct {
	Segments []*Circuit
}

// State returns the weakest state across segments: the circuit is usable
// only when every segment is Active.
func (c *InterDomainCircuit) State() State {
	state := Active
	for _, seg := range c.Segments {
		if seg.state < state {
			state = seg.state
		}
		if seg.state == Cancelled || seg.state == Released {
			return seg.state
		}
	}
	return state
}

// CreateReservation daisy-chains a reservation across all domains:
// src→border₁ in domain 1, border₁→border₂ in domain 2, …, borderₙ→dst in
// the last domain. If any domain rejects, previously admitted segments are
// cancelled and the request fails with no residual state.
func (f *Federation) CreateReservation(req Request) (*InterDomainCircuit, error) {
	circuit := &InterDomainCircuit{}
	from := req.Src
	for i, idc := range f.domains {
		to := req.Dst
		if i < len(f.borders) {
			to = f.borders[i]
		}
		segReq := req
		segReq.Src, segReq.Dst = from, to
		seg, err := idc.CreateReservation(segReq)
		if err != nil {
			// Roll back through each segment's owning IDC so the right
			// ledger is released. Segments are at worst Provisioning here
			// and therefore always cancellable.
			for j, done := range circuit.Segments {
				_ = f.domains[j].Cancel(done)
			}
			return nil, fmt.Errorf("oscars: domain %s rejected segment %s->%s: %w",
				idc.Domain, from, to, err)
		}
		circuit.Segments = append(circuit.Segments, seg)
		from = to
	}
	return circuit, nil
}
