package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gftpvc/internal/stats"
)

// SessionPlan fixes how many transfers each generated session contains.
// The allocator reproduces a dataset's Table III row exactly: total
// transfers, total sessions, single-transfer sessions, the largest
// session's fan-out, and the number of sessions with ≥100 transfers.
type SessionPlan struct {
	Counts []int
}

// PlanSpec is the Table III row to honor, plus optional reserved session
// sizes (special populations such as the SLAC–BNL night-spike batch).
type PlanSpec struct {
	Transfers    int
	Sessions     int
	Singles      int
	MaxTransfers int
	Over100      int
	// Reserved fan-outs are placed as dedicated sessions (each must be in
	// [100, MaxTransfers) and counts toward Over100).
	Reserved []int
	// AbsorbOverflow lets the largest session grow beyond MaxTransfers to
	// absorb otherwise unplaceable transfers. Scaled-down specs need this;
	// the full-size paper specs never do.
	AbsorbOverflow bool
}

// BuildSessionPlan deterministically allocates per-session transfer counts
// matching the spec. The large-session counts are log-spaced between 100
// and the maximum (session fan-out is heavy-tailed in the real logs);
// leftovers spill into the small sessions (capped at 99) and then back
// into the large ones.
func BuildSessionPlan(spec PlanSpec) (*SessionPlan, error) {
	multi := spec.Sessions - spec.Singles
	if spec.Transfers < 1 || spec.Sessions < 1 || spec.Singles < 0 || multi < 0 {
		return nil, errors.New("workload: invalid plan spec")
	}
	if spec.Over100 > multi || spec.Over100 < 1 {
		return nil, errors.New("workload: Over100 must be in [1, multi-session count]")
	}
	if spec.MaxTransfers < 100 {
		return nil, errors.New("workload: MaxTransfers must be >= 100")
	}
	if len(spec.Reserved) > spec.Over100-1 {
		return nil, errors.New("workload: too many reserved sessions")
	}
	for _, r := range spec.Reserved {
		if r < 100 || r >= spec.MaxTransfers {
			return nil, fmt.Errorf("workload: reserved count %d outside [100, max)", r)
		}
	}
	budget := spec.Transfers - spec.Singles
	nBig := spec.Over100
	nSmall := multi - nBig
	if nSmall < 0 {
		return nil, errors.New("workload: more big sessions than multi sessions")
	}

	bigs := make([]int, 0, nBig)
	bigs = append(bigs, spec.MaxTransfers)
	bigs = append(bigs, spec.Reserved...)
	for len(bigs) < nBig {
		bigs = append(bigs, 100)
	}
	smalls := make([]int, nSmall)
	for i := range smalls {
		smalls[i] = 2
	}
	base := sum(bigs) + sum(smalls)
	leftover := budget - base
	if leftover < 0 {
		return nil, fmt.Errorf("workload: plan infeasible, base %d exceeds budget %d", base, budget)
	}
	// Fill the big sessions first (fan-out is heavy-tailed: most transfers
	// belong to a few huge directory-tree sessions), capped just below the
	// maximum so it stays unique; the residue trickles into the small
	// sessions (cap 99).
	grow := bigs[1+len(spec.Reserved):]
	leftover = fillWeighted(grow, leftover, spec.MaxTransfers-1)
	leftover = fillWeighted(smalls, leftover, 99)
	if leftover != 0 {
		if !spec.AbsorbOverflow {
			return nil, fmt.Errorf("workload: %d transfers could not be placed", leftover)
		}
		bigs[0] += leftover
	}
	counts := make([]int, 0, spec.Sessions)
	for i := 0; i < spec.Singles; i++ {
		counts = append(counts, 1)
	}
	counts = append(counts, smalls...)
	counts = append(counts, bigs...)
	return &SessionPlan{Counts: counts}, nil
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// fillWeighted distributes extra transfers over items with log-spaced
// weights, respecting the per-item cap. It returns the undistributed
// remainder.
func fillWeighted(items []int, extra, cap int) int {
	if len(items) == 0 || extra <= 0 {
		return extra
	}
	weights := make([]float64, len(items))
	totalW := 0.0
	for i := range weights {
		// Exponential decay across the slice: early items absorb more.
		weights[i] = math.Exp(-3 * float64(i) / float64(len(items)))
		totalW += weights[i]
	}
	for i := range items {
		if extra <= 0 {
			break
		}
		add := int(math.Round(float64(extra) * weights[i] / totalW))
		if add > extra {
			add = extra
		}
		if items[i]+add > cap {
			add = cap - items[i]
		}
		items[i] += add
		extra -= add
	}
	// Second pass: linear fill for rounding residue.
	for i := range items {
		if extra <= 0 {
			break
		}
		room := cap - items[i]
		if room <= 0 {
			continue
		}
		add := room
		if add > extra {
			add = extra
		}
		items[i] += add
		extra -= add
	}
	return extra
}

// Verify checks a plan against its spec; generators call it defensively.
func (p *SessionPlan) Verify(spec PlanSpec) error {
	if len(p.Counts) != spec.Sessions {
		return fmt.Errorf("workload: %d sessions, want %d", len(p.Counts), spec.Sessions)
	}
	if got := sum(p.Counts); got != spec.Transfers {
		return fmt.Errorf("workload: %d transfers, want %d", got, spec.Transfers)
	}
	singles, over100, max := 0, 0, 0
	for _, c := range p.Counts {
		if c == 1 {
			singles++
		}
		if c >= 100 {
			over100++
		}
		if c > max {
			max = c
		}
	}
	if singles != spec.Singles {
		return fmt.Errorf("workload: %d singles, want %d", singles, spec.Singles)
	}
	if over100 != spec.Over100 {
		return fmt.Errorf("workload: %d sessions >= 100 transfers, want %d", over100, spec.Over100)
	}
	if max != spec.MaxTransfers {
		return fmt.Errorf("workload: max fan-out %d, want %d", max, spec.MaxTransfers)
	}
	return nil
}

// pairSizesWithCounts draws one size per session from the sampler and
// pairs larger sizes with larger fan-outs (rank correlation with noise):
// a 20k-transfer session is a big directory tree, not a single file.
func pairSizesWithCounts(rng *rand.Rand, sampler *stats.QuantileSampler, counts []int) []float64 {
	n := len(counts)
	sizes := sampler.SampleN(rng, n)
	sort.Float64s(sizes)
	// Rank the counts; add noise so the pairing is correlated, not exact.
	type ranked struct {
		idx int
		key float64
	}
	rs := make([]ranked, n)
	for i, c := range counts {
		rs[i] = ranked{idx: i, key: float64(c) * math.Exp(0.5*rng.NormFloat64())}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].key < rs[j].key })
	out := make([]float64, n)
	for rank, r := range rs {
		out[r.idx] = sizes[rank]
	}
	return out
}

// splitSession divides a session's total size (bytes) into per-transfer
// sizes with log-normal jitter, preserving the exact total and keeping
// every piece at least one byte.
func splitSession(rng *rand.Rand, totalBytes float64, n int) []float64 {
	if n == 1 {
		return []float64{totalBytes}
	}
	weights := make([]float64, n)
	wsum := 0.0
	for i := range weights {
		weights[i] = math.Exp(0.8 * rng.NormFloat64())
		wsum += weights[i]
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Max(1, totalBytes*weights[i]/wsum)
	}
	return out
}
