package stats

import (
	"math"
	"math/rand"
	"testing"
)

// slacThroughputMbps is Table II's transfer-throughput row (Mbps).
var slacThroughputMbps = Summary{
	Min: 0.004, Q1: 45.4, Median: 109.6, Mean: 195.9, Q3: 256.2, Max: 2560,
}

// ncarThroughputMbps is Table I's transfer-throughput row (Mbps).
var ncarThroughputMbps = Summary{
	Min: 2.1e-6, Q1: 196.9, Median: 392.8, Mean: 434.9, Q3: 682.2, Max: 4227,
}

func TestNewQuantileSamplerValidation(t *testing.T) {
	bad := []Summary{
		{Min: 0, Q1: 1, Median: 2, Q3: 3, Max: 4},           // zero anchor
		{Min: -1, Q1: 1, Median: 2, Q3: 3, Max: 4},          // negative
		{Min: 5, Q1: 1, Median: 2, Q3: 3, Max: 4},           // out of order
		{Min: 1, Q1: 2, Median: 3, Q3: 5, Max: 4},           // max < q3
		{Min: 1, Q1: 2, Median: math.NaN(), Q3: 3, Max: 4},  // NaN
		{Min: 1, Q1: 2, Median: math.Inf(1), Q3: 3, Max: 4}, // Inf
	}
	for i, s := range bad {
		if _, err := NewQuantileSampler(s); err == nil {
			t.Errorf("case %d: expected error for %+v", i, s)
		}
	}
}

func TestQuantileSamplerHitsAnchors(t *testing.T) {
	q := MustQuantileSampler(slacThroughputMbps)
	cases := []struct{ p, want float64 }{
		{0, slacThroughputMbps.Min},
		{0.25, slacThroughputMbps.Q1},
		{0.5, slacThroughputMbps.Median},
		{0.75, slacThroughputMbps.Q3},
		{1, slacThroughputMbps.Max},
	}
	for _, c := range cases {
		got := q.Value(c.p)
		if math.Abs(got-c.want) > 1e-9*c.want+1e-12 {
			t.Errorf("Value(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestQuantileSamplerMatchesMean(t *testing.T) {
	for name, s := range map[string]Summary{
		"slac": slacThroughputMbps,
		"ncar": ncarThroughputMbps,
	} {
		q := MustQuantileSampler(s)
		got := q.Mean()
		if math.Abs(got-s.Mean)/s.Mean > 0.02 {
			t.Errorf("%s: reconstructed mean %v, want %v (within 2%%)", name, got, s.Mean)
		}
	}
}

func TestQuantileSamplerMonotone(t *testing.T) {
	q := MustQuantileSampler(ncarThroughputMbps)
	prev := -math.MaxFloat64
	for p := 0.0; p <= 1.0001; p += 0.001 {
		v := q.Value(p)
		if v < prev {
			t.Fatalf("inverse CDF not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestQuantileSamplerSampleQuartiles(t *testing.T) {
	q := MustQuantileSampler(slacThroughputMbps)
	rng := rand.New(rand.NewSource(1))
	xs := q.SampleN(rng, 200000)
	s := MustSummarize(xs)
	check := func(name string, got, want float64) {
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: sampled %v, want %v (within 5%%)", name, got, want)
		}
	}
	check("Q1", s.Q1, slacThroughputMbps.Q1)
	check("Median", s.Median, slacThroughputMbps.Median)
	check("Q3", s.Q3, slacThroughputMbps.Q3)
	check("Mean", s.Mean, slacThroughputMbps.Mean)
	if s.Min < slacThroughputMbps.Min || s.Max > slacThroughputMbps.Max {
		t.Errorf("samples escape [Min, Max]: got [%v, %v]", s.Min, s.Max)
	}
}

func TestQuantileSamplerNoMean(t *testing.T) {
	s := Summary{Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 10} // Mean unset
	q := MustQuantileSampler(s)
	if q.gamma != 1 {
		t.Errorf("gamma = %v, want 1 when mean unspecified", q.gamma)
	}
}

func TestQuantileSamplerUnreachableMean(t *testing.T) {
	// Mean below the lightest-tail expectation: gamma should clamp high.
	s := Summary{Min: 1, Q1: 2, Median: 3, Mean: 1.01, Q3: 4, Max: 10}
	q := MustQuantileSampler(s)
	if q.gamma < 50 {
		t.Errorf("gamma = %v, want clamp near upper bound", q.gamma)
	}
	// Mean above the heaviest-tail expectation: clamp low.
	s2 := Summary{Min: 1, Q1: 2, Median: 3, Mean: 9.99, Q3: 4, Max: 10}
	q2 := MustQuantileSampler(s2)
	if q2.gamma > 0.05 {
		t.Errorf("gamma = %v, want clamp near lower bound", q2.gamma)
	}
}

func TestTruncatedLogNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v, err := TruncatedLogNormal(rng, 100, 2, 10, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if v < 10 || v > 1000 {
			t.Fatalf("sample %v outside truncation window", v)
		}
	}
}

func TestTruncatedLogNormalErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ median, gsd, lo, hi float64 }{
		{0, 2, 0, 1},  // zero median
		{1, 1, 0, 1},  // gsd not > 1
		{1, 2, 5, 1},  // lo > hi
		{1, 2, -1, 1}, // negative lo
	}
	for i, c := range cases {
		if _, err := TruncatedLogNormal(rng, c.median, c.gsd, c.lo, c.hi); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestTruncatedLogNormalFarTailClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Window far above the median: resampling will fail, expect clamp into window.
	v, err := TruncatedLogNormal(rng, 1, 1.0001, 1e6, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1e6 || v > 2e6 {
		t.Errorf("clamped value %v outside window", v)
	}
}
