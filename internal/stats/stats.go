// Package stats provides the descriptive statistics used throughout the
// GridFTP virtual-circuit study: five-number summaries, coefficients of
// variation, Pearson correlation, quantiles, histograms and binning, and
// quantile-matching samplers that reconstruct distributions from the
// summary statistics a paper reports.
//
// All functions operate on float64 slices and never mutate their inputs
// unless explicitly documented otherwise.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds the five-number summary plus mean and standard deviation of
// a sample, matching the layout the paper uses in its tables
// (Min / 1st Qu. / Median / Mean / 3rd Qu. / Max).
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Mean   float64
	Q3     float64
	Max    float64
	StdDev float64
}

// CV returns the coefficient of variation (stddev/mean) of the summary.
// It returns 0 if the mean is zero.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.StdDev / s.Mean
}

// IQR returns the inter-quartile range Q3-Q1.
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// Summarize computes a Summary of xs. It copies and sorts internally.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.50),
		Q3:     quantileSorted(sorted, 0.75),
		Mean:   Mean(sorted),
	}
	s.StdDev = StdDev(sorted)
	return s, nil
}

// MustSummarize is Summarize but panics on an empty sample. It is intended
// for experiment harness code where an empty sample is a programming error.
func MustSummarize(xs []float64) Summary {
	s, err := Summarize(xs)
	if err != nil {
		panic(err)
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator),
// or 0 when fewer than two observations are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between closest ranks (the R-7 / type-7 estimator, which is
// what R's quantile() — used by the paper's authors — defaults to).
func Quantile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p), nil
}

// quantileSorted computes the type-7 quantile of an already-sorted slice.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[n-1]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	frac := h - float64(lo)
	if hi >= n {
		return sorted[n-1]
	}
	// The convex form avoids overflow when the endpoints are near ±MaxFloat64.
	return (1-frac)*sorted[lo] + frac*sorted[hi]
}

// Median returns the median of xs.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. It returns an error when the lengths differ,
// fewer than two pairs are present, or either sample has zero variance.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: correlation requires equal-length samples")
	}
	if len(xs) < 2 {
		return 0, errors.New("stats: correlation requires at least two pairs")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: correlation undefined for zero-variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Bin describes one histogram bin: the half-open interval [Lo, Hi) and the
// values that fell into it.
type Bin struct {
	Lo, Hi float64
	Values []float64
}

// Count returns the number of observations in the bin.
func (b Bin) Count() int { return len(b.Values) }

// FixedBins partitions the observations xs by key into equal-width bins of
// width w covering [lo, hi). keys and xs are paired: keys[i] decides the bin
// and xs[i] is the recorded value (e.g. key = file size, value = throughput).
// Observations with keys outside [lo, hi) are dropped. The returned slice
// always has ceil((hi-lo)/w) bins, possibly with empty Values.
func FixedBins(keys, xs []float64, lo, hi, w float64) ([]Bin, error) {
	if len(keys) != len(xs) {
		return nil, errors.New("stats: keys and values must have equal length")
	}
	if w <= 0 || hi <= lo {
		return nil, errors.New("stats: invalid bin geometry")
	}
	n := int(math.Ceil((hi - lo) / w))
	bin := func(k float64) int { // k's bin, or n outside [lo, hi)
		if k < lo || k >= hi {
			return n
		}
		return min(int((k-lo)/w), n-1) // guard floating-point edge at hi
	}
	// Count first, then give each bin a capped view of one array.
	counts := make([]int, n+1)
	for _, k := range keys {
		counts[bin(k)]++
	}
	all := make([]float64, len(keys)-counts[n])
	bins := make([]Bin, n)
	for i, off := 0, 0; i < n; i++ {
		bins[i] = Bin{Lo: lo + float64(i)*w, Hi: lo + float64(i)*w + w, Values: all[off : off : off+counts[i]]}
		off += counts[i]
	}
	for i, k := range keys {
		if b := bin(k); b < n {
			bins[b].Values = append(bins[b].Values, xs[i])
		}
	}
	return bins, nil
}

// MedianPerBin maps each bin to the median of its values; empty bins yield
// NaN so callers can skip them when plotting.
func MedianPerBin(bins []Bin) []float64 {
	out := make([]float64, len(bins))
	for i, b := range bins {
		if len(b.Values) == 0 {
			out[i] = math.NaN()
			continue
		}
		m, _ := Median(b.Values)
		out[i] = m
	}
	return out
}

// BoxPlot holds the statistics a box-and-whisker plot renders, following the
// Tukey convention used by R's boxplot (whiskers at the most extreme points
// within 1.5×IQR of the quartiles).
type BoxPlot struct {
	LowerWhisker float64
	Q1           float64
	Median       float64
	Q3           float64
	UpperWhisker float64
	Outliers     []float64
}

// BoxPlotOf computes the box-plot statistics of xs.
func BoxPlotOf(xs []float64) (BoxPlot, error) {
	s, err := Summarize(xs)
	if err != nil {
		return BoxPlot{}, err
	}
	iqr := s.IQR()
	loFence := s.Q1 - 1.5*iqr
	hiFence := s.Q3 + 1.5*iqr
	bp := BoxPlot{Q1: s.Q1, Median: s.Median, Q3: s.Q3}
	bp.LowerWhisker = math.Inf(1)
	bp.UpperWhisker = math.Inf(-1)
	for _, x := range xs {
		if x < loFence || x > hiFence {
			bp.Outliers = append(bp.Outliers, x)
			continue
		}
		if x < bp.LowerWhisker {
			bp.LowerWhisker = x
		}
		if x > bp.UpperWhisker {
			bp.UpperWhisker = x
		}
	}
	// Degenerate case: everything was an outlier (cannot happen with the
	// Tukey fences, but be defensive about NaN inputs).
	if math.IsInf(bp.LowerWhisker, 1) {
		bp.LowerWhisker = s.Min
		bp.UpperWhisker = s.Max
	}
	sort.Float64s(bp.Outliers)
	return bp, nil
}
