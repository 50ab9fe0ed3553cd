// Package alphaflow identifies α flows — the high-rate, large-size
// transfers that Sarvotham et al. showed dominate burstiness — and
// implements the HNTES-style redirection policy the paper sketches in
// §IV: once an endpoint pair is known to generate α flows, its future
// traffic is redirected at the ingress router onto an intra-domain virtual
// circuit, isolating the bursts from general-purpose traffic.
package alphaflow

import (
	"errors"
	"sort"
	"sync"

	"gftpvc/internal/usagestats"
)

// Classifier labels flows as α by sustained rate and size.
type Classifier struct {
	// MinRateBps is the sustained-rate threshold; the paper observes α
	// flows at 2.5+ Gbps but rates well below that still dwarf
	// general-purpose flows. A common operational choice is 100 Mbps.
	MinRateBps float64
	// MinSizeBytes filters out short bursts; 1 GB is typical.
	MinSizeBytes float64
}

// DefaultClassifier matches the operational thresholds discussed above.
func DefaultClassifier() Classifier {
	return Classifier{MinRateBps: 100e6, MinSizeBytes: 1e9}
}

// Validate reports whether the thresholds are usable.
func (c Classifier) Validate() error {
	if c.MinRateBps <= 0 || c.MinSizeBytes <= 0 {
		return errors.New("alphaflow: thresholds must be positive")
	}
	return nil
}

// IsAlpha reports whether a flow of the given size and duration is an α
// flow.
func (c Classifier) IsAlpha(sizeBytes, durationSec float64) bool {
	if sizeBytes < c.MinSizeBytes || durationSec <= 0 {
		return false
	}
	return sizeBytes*8/durationSec >= c.MinRateBps
}

// PairKey identifies an endpoint pair (the granularity at which ingress
// firewall filters redirect traffic).
type PairKey struct {
	Src, Dst string
}

// Rule is one installed redirect: traffic between the pair is steered onto
// the named intra-domain circuit.
type Rule struct {
	Pair PairKey
	// Hits counts α flows observed from the pair.
	Hits int
	// BytesSeen accumulates α bytes from the pair.
	BytesSeen float64
}

// Redirector learns which endpoint pairs produce α flows and answers
// whether new traffic from a pair should be steered to a VC. It is safe
// for concurrent use (observation happens in transfer-completion
// callbacks, queries on the forwarding path).
type Redirector struct {
	classifier Classifier

	mu    sync.Mutex
	rules map[PairKey]*Rule
}

// NewRedirector builds a redirector with the given classifier.
func NewRedirector(c Classifier) (*Redirector, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &Redirector{classifier: c, rules: make(map[PairKey]*Rule)}, nil
}

// Observe feeds one completed transfer record to the learner. Records
// without a remote host (anonymized) teach nothing.
func (r *Redirector) Observe(rec usagestats.Record) {
	if rec.RemoteHost == "" {
		return
	}
	if !r.classifier.IsAlpha(float64(rec.SizeBytes), rec.DurationSec) {
		return
	}
	key := PairKey{Src: rec.ServerHost, Dst: rec.RemoteHost}
	r.mu.Lock()
	rule := r.rules[key]
	if rule == nil {
		rule = &Rule{Pair: key}
		r.rules[key] = rule
	}
	rule.Hits++
	rule.BytesSeen += float64(rec.SizeBytes)
	r.mu.Unlock()
}

// ShouldRedirect reports whether traffic between the pair should be
// steered onto an intra-domain VC. Both orientations of the pair match:
// the same DTN pair produces α flows in both directions.
func (r *Redirector) ShouldRedirect(src, dst string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.rules[PairKey{Src: src, Dst: dst}]; ok {
		return true
	}
	_, ok := r.rules[PairKey{Src: dst, Dst: src}]
	return ok
}

// Rules returns the learned rules sorted by bytes seen, descending — the
// order in which an operator would provision static intra-domain VCs.
func (r *Redirector) Rules() []Rule {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Rule, 0, len(r.rules))
	for _, rule := range r.rules {
		out = append(out, *rule)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BytesSeen != out[j].BytesSeen {
			return out[i].BytesSeen > out[j].BytesSeen
		}
		return out[i].Pair.Src+out[i].Pair.Dst < out[j].Pair.Src+out[j].Pair.Dst
	})
	return out
}
