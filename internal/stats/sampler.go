package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// QuantileSampler draws values from a distribution reconstructed from a
// reported five-number summary (Min, Q1, Median, Q3, Max) and, optionally,
// the reported mean.
//
// The paper's datasets (production GridFTP logs) are unavailable, but every
// analysis in the paper is distributional, so reconstructing a distribution
// that honors each reported quartile reproduces the analysis inputs. The
// sampler builds a piecewise CDF anchored at probabilities
// {0, 0.25, 0.5, 0.75, 1}: the three interior segments interpolate
// log-linearly (the quantities involved — bytes, seconds, bits/s — are
// positive and right-skewed), while the upper-tail segment [Q3, Max] uses a
// power-law warp value(u) = Q3·(Max/Q3)^(u^γ). γ is solved numerically so
// the distribution's expectation matches the reported mean; γ > 1 pushes
// mass toward Q3 (light tail), γ < 1 toward Max (heavy tail).
type QuantileSampler struct {
	s     Summary
	gamma float64
	// probs/logsV are the CDF anchors (probabilities and log-values);
	// segments interpolate log-linearly except the head (optional warp
	// exponent headGamma) and the tail (fitted warp exponent gamma).
	probs     []float64
	logsV     []float64
	headGamma float64
}

// Shape refines the reconstructed distribution beyond the five-number
// summary.
type Shape struct {
	// P90, when positive, adds a 90th-percentile anchor between Q3 and
	// Max; papers often pin upper-tail behaviour that a single warped
	// segment cannot represent.
	P90 float64
	// HeadGamma, when in (0,1), pushes the lowest quartile's mass toward
	// Q1: value(u) = Min·(Q1/Min)^(u^HeadGamma). Measured minima are
	// often extreme outliers (the paper's 2.1 bps transfer) and a
	// log-uniform bottom segment would fabricate a fat population of
	// absurdly slow transfers.
	HeadGamma float64
}

// NewQuantileSampler builds a sampler for the given summary. All six summary
// fields must be positive and weakly ordered Min <= Q1 <= Median <= Q3 <= Max.
// If s.Mean is zero it is treated as unspecified and γ defaults to 1
// (log-linear tail). A Mean outside the achievable range for the fixed
// quartiles is clamped to the nearest achievable expectation.
func NewQuantileSampler(s Summary) (*QuantileSampler, error) {
	return NewShapedSampler(s, Shape{})
}

// NewShapedSampler is NewQuantileSampler with shape refinements.
func NewShapedSampler(s Summary, shape Shape) (*QuantileSampler, error) {
	probs := []float64{0, 0.25, 0.5, 0.75, 1}
	vals := []float64{s.Min, s.Q1, s.Median, s.Q3, s.Max}
	if shape.P90 > 0 {
		if shape.P90 < s.Q3 || shape.P90 > s.Max {
			return nil, fmt.Errorf("stats: P90 anchor %v outside [Q3, Max]", shape.P90)
		}
		probs = []float64{0, 0.25, 0.5, 0.75, 0.9, 1}
		vals = []float64{s.Min, s.Q1, s.Median, s.Q3, shape.P90, s.Max}
	}
	if shape.HeadGamma < 0 || shape.HeadGamma > 1 {
		return nil, fmt.Errorf("stats: head exponent %v outside [0,1]", shape.HeadGamma)
	}
	for i, v := range vals {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("stats: quantile sampler requires positive finite quantiles, got %v at anchor %d", v, i)
		}
		if i > 0 && v < vals[i-1] {
			return nil, fmt.Errorf("stats: quantile anchors out of order: %v < %v", v, vals[i-1])
		}
	}
	q := &QuantileSampler{s: s, gamma: 1, probs: probs, headGamma: shape.HeadGamma}
	q.logsV = make([]float64, len(vals))
	for i, v := range vals {
		q.logsV[i] = math.Log(v)
	}
	if s.Mean > 0 {
		q.fitGamma(s.Mean)
	}
	return q, nil
}

// MustQuantileSampler is NewQuantileSampler but panics on error; for use
// with the compiled-in calibration tables, where a bad summary is a bug.
func MustQuantileSampler(s Summary) *QuantileSampler {
	q, err := NewQuantileSampler(s)
	if err != nil {
		panic(err)
	}
	return q
}

// MustShapedSampler is NewShapedSampler but panics on error.
func MustShapedSampler(s Summary, shape Shape) *QuantileSampler {
	q, err := NewShapedSampler(s, shape)
	if err != nil {
		panic(err)
	}
	return q
}

// Value returns the inverse CDF at probability p in [0,1].
func (q *QuantileSampler) Value(p float64) float64 {
	last := len(q.probs) - 1
	switch {
	case p <= 0:
		return q.s.Min
	case p >= 1:
		return q.s.Max
	}
	seg := last - 1
	for i := 1; i <= last; i++ {
		if p < q.probs[i] {
			seg = i - 1
			break
		}
	}
	u := (p - q.probs[seg]) / (q.probs[seg+1] - q.probs[seg])
	switch {
	case seg == 0 && q.headGamma > 0:
		u = math.Pow(u, q.headGamma)
	case seg == last-1:
		u = math.Pow(u, q.gamma)
	}
	return math.Exp(q.logsV[seg] + u*(q.logsV[seg+1]-q.logsV[seg]))
}

// Sample draws one value using rng.
func (q *QuantileSampler) Sample(rng *rand.Rand) float64 {
	return q.Value(rng.Float64())
}

// SampleN draws n values using rng.
func (q *QuantileSampler) SampleN(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = q.Sample(rng)
	}
	return out
}

// Mean returns the expectation of the reconstructed distribution, computed
// by numeric integration of the inverse CDF.
func (q *QuantileSampler) Mean() float64 {
	const steps = 4096
	sum := 0.0
	for i := 0; i < steps; i++ {
		p := (float64(i) + 0.5) / steps
		sum += q.Value(p)
	}
	return sum / steps
}

// fitGamma solves for the tail exponent that matches the target mean by
// bisection. The expectation is monotone decreasing in γ (larger γ keeps
// the tail segment near Q3).
func (q *QuantileSampler) fitGamma(target float64) {
	lo, hi := 0.02, 60.0
	q.gamma = lo
	meanLo := q.Mean() // heaviest achievable tail
	q.gamma = hi
	meanHi := q.Mean() // lightest achievable tail
	switch {
	case target >= meanLo:
		q.gamma = lo
		return
	case target <= meanHi:
		q.gamma = hi
		return
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		q.gamma = mid
		if q.Mean() > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	q.gamma = (lo + hi) / 2
}

// TruncatedLogNormal draws from a log-normal distribution with the given
// median and geometric standard deviation factor (gsd > 1), truncated to
// [lo, hi] by resampling. It is used for secondary quantities the paper
// does not fully tabulate (per-file sizes within a session, inter-transfer
// gaps) where only the general shape — right-skewed, positive — matters.
func TruncatedLogNormal(rng *rand.Rand, median, gsd, lo, hi float64) (float64, error) {
	if median <= 0 || gsd <= 1 || lo > hi || lo < 0 {
		return 0, errors.New("stats: invalid truncated log-normal parameters")
	}
	mu := math.Log(median)
	sigma := math.Log(gsd)
	for i := 0; i < 1000; i++ {
		v := math.Exp(mu + sigma*rng.NormFloat64())
		if v >= lo && v <= hi {
			return v, nil
		}
	}
	// The truncation window is far in the tail; fall back to clamping so
	// callers never spin forever.
	v := math.Exp(mu)
	return math.Min(math.Max(v, lo), hi), nil
}
