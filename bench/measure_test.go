package main

import (
	"math"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{3, 50}, {19, 50}, // nothing has ten samples beyond it
		{100, 90},  // p90 leaves exactly 10; p95 leaves 5
		{199, 90},  // p95 would leave 9.95
		{200, 95},  // the bulk_stor count: exactly 10 beyond p95
		{300, 95},  // bulk_retr: 15 beyond p95, 3 beyond p99
		{999, 95},  // p99 would leave 9.99
		{1000, 99}, // exactly 10 beyond p99
		{6000, 99}, // small_files: 60 beyond p99, 6 beyond p99.9
		{10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := iqr([]float64{5, 1, 4, 2, 3}); got != 2 {
		t.Errorf("iqr = %g, want 2", got)
	}
}
