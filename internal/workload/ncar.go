package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gftpvc/internal/stats"
	"gftpvc/internal/usagestats"
)

// Options configures a dataset generator.
type Options struct {
	// Seed makes generation reproducible; the same seed yields the same
	// dataset byte for byte.
	Seed int64
	// Scale shrinks the dataset for fast tests (0 < Scale <= 1; default
	// 1 reproduces the paper's counts exactly).
	Scale float64
}

func (o *Options) normalize() error {
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.Scale < 0 || o.Scale > 1 {
		return errors.New("workload: scale must be in (0,1]")
	}
	return nil
}

// Dataset is one generated log with the plan it realizes.
type Dataset struct {
	Name    string
	Records []usagestats.Record
	Spec    PlanSpec
}

// scaleSpec shrinks a Table III row by the scale factor, keeping the plan
// feasible (the allocator needs room for every transfer).
func scaleSpec(spec PlanSpec, scale float64) PlanSpec {
	if scale >= 1 {
		return spec
	}
	s := PlanSpec{
		Transfers:    max(10, int(float64(spec.Transfers)*scale)),
		Sessions:     max(3, int(float64(spec.Sessions)*scale)),
		Singles:      int(float64(spec.Singles) * scale),
		MaxTransfers: max(100, int(float64(spec.MaxTransfers)*scale)),
		Over100:      max(1, int(float64(spec.Over100)*scale)),
	}
	if s.Singles >= s.Sessions {
		s.Singles = s.Sessions - 1
	}
	if s.Over100 > s.Sessions-s.Singles {
		s.Over100 = s.Sessions - s.Singles
	}
	for _, r := range spec.Reserved {
		rs := int(float64(r) * scale)
		if rs >= 100 && rs < s.MaxTransfers && len(s.Reserved) < s.Over100-1 {
			s.Reserved = append(s.Reserved, rs)
		}
	}
	return s
}

// buildFeasible builds a plan. Full-size specs build strictly; scaled
// specs may need the maximum session clamped (when the budget cannot
// reach it) or grown (when the other sessions cannot absorb the budget),
// in which case the returned spec reflects the realized maximum.
func buildFeasible(spec PlanSpec) (*SessionPlan, PlanSpec, error) {
	plan, err := BuildSessionPlan(spec)
	if err == nil {
		return plan, spec, nil
	}
	multi := spec.Sessions - spec.Singles
	minOthers := sum(spec.Reserved) + (spec.Over100-1-len(spec.Reserved))*100 + (multi-spec.Over100)*2
	budget := spec.Transfers - spec.Singles
	if cap := budget - minOthers; cap >= 100 && spec.MaxTransfers > cap {
		spec.MaxTransfers = cap
	}
	spec.AbsorbOverflow = true
	plan, err = BuildSessionPlan(spec)
	if err != nil {
		return nil, spec, fmt.Errorf("workload: no feasible plan for %+v: %w", spec, err)
	}
	m := 0
	for _, c := range plan.Counts {
		if c > m {
			m = c
		}
	}
	spec.MaxTransfers = m
	return plan, spec, nil
}

// sessionLayout drives the temporal structure shared by the NCAR and SLAC
// generators. Sessions between one endpoint pair are packed sequentially
// with inter-session gaps far above g — the paper's grouping definition
// makes real sessions non-overlapping by construction — while transfers
// within a session run on one or more parallel "lanes" (scripts moving a
// directory tree pipeline several files at once, which is how a 12 TB
// session achieves a 1.06 Gbps effective rate out of ~200 Mbps transfers,
// and why gaps can be negative).
type sessionLayout struct {
	rng        *rand.Rand
	serverHost string
	remoteHost string
	start      time.Time
	// period is the observation window the sessions spread across.
	period time.Duration
	// maxLanes caps a session's transfer concurrency.
	maxLanes int
	// smallGapMaxSec bounds the think-time between transfers in small
	// (single-lane) sessions; it must stay below g = 1 min so grouping
	// recovers the plan. Small positive gaps are what g = 0 splits on.
	smallGapMaxSec float64
	// overlapProb is the chance a single-lane transfer starts before the
	// previous one ends (scripts overlapping the next request); it sets
	// how much of a dataset survives grouping at g = 0.
	overlapProb float64

	cursor time.Time // advances as sessions are packed
}

// laneCount picks the session's concurrency from its fan-out.
func (l *sessionLayout) laneCount(transfers int) int {
	lanes := (transfers + 199) / 200
	if lanes < 1 {
		lanes = 1
	}
	if lanes > l.maxLanes {
		lanes = l.maxLanes
	}
	return lanes
}

// place returns the start time for the next session: the scheduled spread
// position or just after the previous session's end, whichever is later
// (sessions between the same endpoints never interleave).
func (l *sessionLayout) place(index, total int) time.Time {
	offset := time.Duration(float64(l.period) * (float64(index) + l.rng.Float64()*0.5) / float64(total))
	at := l.start.Add(offset)
	minStart := l.cursor.Add(time.Duration((180 + l.rng.Float64()*420) * float64(time.Second)))
	if at.Before(minStart) {
		at = minStart
	}
	return at
}

// emitSession appends records for one session starting at start. sizes and
// durations are per-transfer; extra mutates each record before appending
// (streams, stripes, type). The layout cursor advances to the session end.
func (l *sessionLayout) emitSession(out []usagestats.Record, start time.Time,
	sizes, durations []float64, extra func(i int, r *usagestats.Record)) []usagestats.Record {
	lanes := l.laneCount(len(sizes))
	gapLo, gapHi := 1.0, l.smallGapMaxSec
	if len(sizes) > 50 {
		// Tight scripted loops: sub-second to 2 s think time.
		gapLo, gapHi = 0.1, 2.0
	}
	laneEnd := make([]time.Time, lanes)
	for i := range laneEnd {
		laneEnd[i] = start
	}
	end := start
	for i := range sizes {
		lane := i % lanes
		gap := gapLo + l.rng.Float64()*(gapHi-gapLo)
		if lanes == 1 && l.rng.Float64() < l.overlapProb {
			// Overlapping request: a negative gap of up to five seconds.
			gap = -l.rng.Float64() * 5
		}
		cursor := laneEnd[lane].Add(time.Duration(gap * float64(time.Second)))
		if i == 0 || cursor.Before(start) {
			cursor = start
		}
		r := usagestats.Record{
			Type:        usagestats.Retrieve,
			SizeBytes:   int64(math.Max(1, sizes[i])),
			Start:       cursor,
			DurationSec: math.Max(1e-3, durations[i]),
			ServerHost:  l.serverHost,
			RemoteHost:  l.remoteHost,
			Streams:     1,
			Stripes:     1,
		}
		if extra != nil {
			extra(i, &r)
		}
		out = append(out, r)
		e := r.End()
		laneEnd[lane] = e
		if e.After(end) {
			end = e
		}
	}
	if end.After(l.cursor) {
		l.cursor = end
	}
	return out
}

// NCARNICS generates the NCAR–NICS dataset: 52,454 transfers in 211
// sessions (g = 1 min) spanning 2009–2011, with session sizes, durations
// and transfer throughputs matched to Table I and fan-outs to Table III.
func NCARNICS(opt Options) (*Dataset, error) {
	if err := opt.normalize(); err != nil {
		return nil, err
	}
	spec := scaleSpec(PlanSpec{
		Transfers:    PaperNCARNICSTransfers,
		Sessions:     PaperNCARNICSSessionsG1,
		Singles:      PaperNCARNICSSingleG1,
		MaxTransfers: PaperNCARNICSMaxSessionTransfers,
		Over100:      PaperNCARNICSSessionsOver100,
	}, opt.Scale)
	plan, spec, err := buildFeasible(spec)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sizeSampler := stats.MustQuantileSampler(PaperNCARNICSSessionSizeMB)
	thrSampler := stats.MustShapedSampler(PaperNCARNICSThroughputMbps, throughputShape)

	counts := plan.Counts
	sizesMB := pairSizesWithCounts(rng, sizeSampler, counts)
	layout := &sessionLayout{
		rng:        rng,
		serverHost: HostNCAR,
		remoteHost: HostNICS,
		start:      time.Date(2009, 1, 5, 0, 0, 0, 0, time.UTC),
		period:     3 * 365 * 24 * time.Hour,
		// The NCAR scripts ran sequentially: at g = 0 the dataset
		// shatters into tens of thousands of sessions (Table III) and
		// only ~2% of transfers stay VC-suitable (Table IV).
		maxLanes:       1,
		smallGapMaxSec: 55,
		overlapProb:    0.5,
	}
	records := make([]usagestats.Record, 0, spec.Transfers)
	for si, count := range counts {
		start := layout.place(si, len(counts))
		sizes := splitSession(rng, sizesMB[si]*1e6, count)
		durations := make([]float64, count)
		year := start.Year()
		stripes := stripesForYear(rng, year)
		for i := range durations {
			thr := thrSampler.Sample(rng) * 1e6 // bps
			// The slowest observed transfers (the 2.1 bps Table I
			// minimum) were tiny files; a bottom-tail rate on a large
			// file would imply a multi-year transfer, so bound each
			// transfer to an hour.
			if min := sizes[i] * 8 / 3600; thr < min {
				thr = min
			}
			durations[i] = sizes[i] * 8 / thr
		}
		records = layout.emitSession(records, start, sizes, durations, func(i int, r *usagestats.Record) {
			r.Stripes = stripes
			r.BufferBytes = 2 << 20
			r.BlockBytes = 256 << 10
		})
	}
	usagestats.SortByStart(records)
	return &Dataset{Name: "ncar-nics", Records: records, Spec: spec}, nil
}

// stripesForYear reflects the NCAR "frost" cluster history the paper
// describes: 3 servers in 2009 (transfers used 1 or 3 stripes), mostly 2
// in 2010, and 1 in 2011.
func stripesForYear(rng *rand.Rand, year int) int {
	switch {
	case year <= 2009:
		if rng.Float64() < 0.5 {
			return 3
		}
		return 1
	case year == 2010:
		if rng.Float64() < 0.8 {
			return 2
		}
		return 1
	default:
		return 1
	}
}

// LargeTransfer is one record of the NCAR 16 GB / 4 GB large-transfer
// subset (Tables VII–IX), carrying the year and stripe count the analysis
// groups by.
type LargeTransfer struct {
	Year           int
	Stripes        int
	SizeBytes      float64
	ThroughputMbps float64
}

// NCARLargeTransfers generates the [16,17) GB and [4,5) GB transfer
// subsets ("87% of the top 5% largest-sized transfers" in the NCAR data).
// Throughput depends on the stripe count — the paper's Table IX shows
// median throughput increasing with stripes — and the year structure
// follows the frost cluster's shrinking server count.
func NCARLargeTransfers(seed int64) (transfers16G, transfers4G []LargeTransfer) {
	rng := rand.New(rand.NewSource(seed))
	base := stats.MustQuantileSampler(stats.Summary{
		Min: 20, Q1: 260, Median: 420, Mean: 470, Q3: 650, Max: 2600,
	})
	counts16 := map[int]int{2009: 420, 2010: 310, 2011: 270}
	counts4 := map[int]int{2009: 500, 2010: 420, 2011: 360}
	gen := func(year, n int, sizeLo, sizeHi float64) []LargeTransfer {
		out := make([]LargeTransfer, 0, n)
		for i := 0; i < n; i++ {
			stripes := stripesForYear(rng, year)
			// Stripe speedup: parallel disk arms, sub-linear.
			factor := 1 + 0.45*float64(stripes-1)
			thr := base.Sample(rng) * factor
			if thr > 4227 {
				thr = 4227
			}
			out = append(out, LargeTransfer{
				Year:           year,
				Stripes:        stripes,
				SizeBytes:      sizeLo + rng.Float64()*(sizeHi-sizeLo),
				ThroughputMbps: thr,
			})
		}
		return out
	}
	for _, year := range []int{2009, 2010, 2011} {
		transfers16G = append(transfers16G, gen(year, counts16[year], 16e9, 17e9)...)
		transfers4G = append(transfers4G, gen(year, counts4[year], 4e9, 5e9)...)
	}
	return transfers16G, transfers4G
}

// FilterLarge partitions large transfers by a predicate; used by the
// Table VIII/IX harnesses.
func FilterLarge(ts []LargeTransfer, keep func(LargeTransfer) bool) []LargeTransfer {
	var out []LargeTransfer
	for _, t := range ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// ThroughputsOf extracts the throughput column.
func ThroughputsOf(ts []LargeTransfer) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.ThroughputMbps
	}
	return out
}
