package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) error = %v, want ErrEmpty", err)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{42})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]float64{
		"Min": s.Min, "Q1": s.Q1, "Median": s.Median,
		"Mean": s.Mean, "Q3": s.Q3, "Max": s.Max,
	} {
		if got != 42 {
			t.Errorf("%s = %v, want 42", name, got)
		}
	}
	if s.StdDev != 0 {
		t.Errorf("StdDev = %v, want 0", s.StdDev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// R: summary(c(1,2,3,4,5,6,7,8)) -> Q1=2.75, median=4.5, Q3=6.25
	s := MustSummarize([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	if !almostEqual(s.Q1, 2.75, 1e-12) {
		t.Errorf("Q1 = %v, want 2.75", s.Q1)
	}
	if !almostEqual(s.Median, 4.5, 1e-12) {
		t.Errorf("Median = %v, want 4.5", s.Median)
	}
	if !almostEqual(s.Q3, 6.25, 1e-12) {
		t.Errorf("Q3 = %v, want 6.25", s.Q3)
	}
	if !almostEqual(s.Mean, 4.5, 1e-12) {
		t.Errorf("Mean = %v, want 4.5", s.Mean)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	MustSummarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Summarize mutated its input: %v", xs)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of {2,4,4,4,5,5,7,9} is 32/7.
	v := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(v, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestQuantileBounds(t *testing.T) {
	xs := []float64{5, 1, 9}
	for _, p := range []float64{-1, 0} {
		if q, _ := Quantile(xs, p); q != 1 {
			t.Errorf("Quantile(p=%v) = %v, want 1", p, q)
		}
	}
	for _, p := range []float64{1, 2} {
		if q, _ := Quantile(xs, p); q != 9 {
			t.Errorf("Quantile(p=%v) = %v, want 9", p, q)
		}
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Error("want error for n<2")
	}
	if _, err := Pearson([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Error("want error for zero variance")
	}
}

func TestFixedBins(t *testing.T) {
	keys := []float64{0.5, 1.5, 1.9, 3.2, -1, 10}
	vals := []float64{10, 20, 30, 40, 50, 60}
	bins, err := FixedBins(keys, vals, 0, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != 4 {
		t.Fatalf("got %d bins, want 4", len(bins))
	}
	if bins[0].Count() != 1 || bins[0].Values[0] != 10 {
		t.Errorf("bin 0 = %+v", bins[0])
	}
	if bins[1].Count() != 2 {
		t.Errorf("bin 1 count = %d, want 2", bins[1].Count())
	}
	if bins[2].Count() != 0 {
		t.Errorf("bin 2 count = %d, want 0", bins[2].Count())
	}
	if bins[3].Count() != 1 || bins[3].Values[0] != 40 {
		t.Errorf("bin 3 = %+v", bins[3])
	}
}

// TestFixedBinsCapped: the bins share one array, so an append to one
// bin's values must copy, leaving the next bin's as they were.
func TestFixedBinsCapped(t *testing.T) {
	bins, err := FixedBins([]float64{0.5, 1.5, 2.5}, []float64{10, 20, 30}, 0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bins[:len(bins)-1] {
		_ = append(bins[i].Values, -1)
		if next := bins[i+1].Values; len(next) != 1 || next[0] != float64(10*(i+2)) {
			t.Fatalf("an append to bin %d changed bin %d: %v", i, i+1, next)
		}
	}
}

func TestFixedBinsErrors(t *testing.T) {
	if _, err := FixedBins([]float64{1}, nil, 0, 1, 1); err == nil {
		t.Error("want error for mismatched lengths")
	}
	if _, err := FixedBins(nil, nil, 0, 1, 0); err == nil {
		t.Error("want error for zero width")
	}
	if _, err := FixedBins(nil, nil, 1, 0, 1); err == nil {
		t.Error("want error for hi<=lo")
	}
}

func TestMedianPerBin(t *testing.T) {
	bins := []Bin{
		{Lo: 0, Hi: 1, Values: []float64{1, 2, 3}},
		{Lo: 1, Hi: 2},
	}
	ms := MedianPerBin(bins)
	if ms[0] != 2 {
		t.Errorf("median of bin 0 = %v, want 2", ms[0])
	}
	if !math.IsNaN(ms[1]) {
		t.Errorf("median of empty bin = %v, want NaN", ms[1])
	}
}

func TestBoxPlotOf(t *testing.T) {
	// One clear outlier at 100.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	bp, err := BoxPlotOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(bp.Outliers) != 1 || bp.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", bp.Outliers)
	}
	if bp.LowerWhisker != 1 {
		t.Errorf("LowerWhisker = %v, want 1", bp.LowerWhisker)
	}
	if bp.UpperWhisker != 8 {
		t.Errorf("UpperWhisker = %v, want 8", bp.UpperWhisker)
	}
	if bp.Median != 5 {
		t.Errorf("Median = %v, want 5", bp.Median)
	}
}

// Property: quantiles are monotone in p and bounded by [min, max].
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 1.0; p += 0.05 {
			q, err := Quantile(xs, p)
			if err != nil || q < prev {
				return false
			}
			prev = q
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		qmin, _ := Quantile(xs, 0)
		qmax, _ := Quantile(xs, 1)
		return qmin == sorted[0] && qmax == sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Pearson correlation is always within [-1, 1] and is symmetric.
func TestPearsonRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
			ys[i] = rng.NormFloat64() * 100
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			continue // zero-variance draw; acceptable
		}
		if r1 < -1-1e-12 || r1 > 1+1e-12 {
			t.Fatalf("Pearson out of range: %v", r1)
		}
		if !almostEqual(r1, r2, 1e-12) {
			t.Fatalf("Pearson not symmetric: %v vs %v", r1, r2)
		}
	}
}

// Property: summary invariants Min <= Q1 <= Median <= Q3 <= Max and
// Min <= Mean <= Max hold for any finite sample.
func TestSummaryOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 1e6
		}
		s := MustSummarize(xs)
		if !(s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max) {
			t.Fatalf("quartile ordering violated: %+v", s)
		}
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			t.Fatalf("mean outside range: %+v", s)
		}
	}
}
