package tcpmodel

import (
	"math"
	"testing"
)

func TestValidate(t *testing.T) {
	good := ESnetPath(0.08)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.RTTSec = 0 },
		func(c *Config) { c.MSSBytes = 0 },
		func(c *Config) { c.InitCwndSegments = 0 },
		func(c *Config) { c.SSThreshBytes = 1 },
		func(c *Config) { c.StreamBufBytes = 1 },
		func(c *Config) { c.BottleneckBps = 0 },
		func(c *Config) { c.AggregateCapBps = -1 },
		func(c *Config) { c.LossRate = -0.1 },
		func(c *Config) { c.LossRate = 1 },
	}
	for i, m := range mutations {
		c := good
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestTransferArgs(t *testing.T) {
	c := ESnetPath(0.08)
	if _, err := c.Transfer(0, 1); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := c.Transfer(1e6, 0); err == nil {
		t.Error("zero streams should fail")
	}
}

func TestEightStreamsBeatOneForSmallFiles(t *testing.T) {
	c := ESnetPath(0.08)
	for _, mb := range []float64{1, 5, 20, 50} {
		r1, err := c.Transfer(mb*1e6, 1)
		if err != nil {
			t.Fatal(err)
		}
		r8, err := c.Transfer(mb*1e6, 8)
		if err != nil {
			t.Fatal(err)
		}
		if r8.ThroughputBps <= r1.ThroughputBps {
			t.Errorf("%v MB: 8-stream %v <= 1-stream %v", mb, r8.ThroughputBps, r1.ThroughputBps)
		}
	}
}

func TestLargeFilesEqualizeWithoutLoss(t *testing.T) {
	c := ESnetPath(0.08)
	size := 4e9 // 4 GB
	r1, _ := c.Transfer(size, 1)
	r8, _ := c.Transfer(size, 8)
	ratio := r8.ThroughputBps / r1.ThroughputBps
	if ratio > 1.10 || ratio < 0.95 {
		t.Errorf("large-file ratio = %v, want ~1 (loss-free regime)", ratio)
	}
	// Both should sit essentially at the plateau.
	if r1.ThroughputBps < 0.9*r1.SteadyBps {
		t.Errorf("1-stream large file below plateau: %v of %v", r1.ThroughputBps, r1.SteadyBps)
	}
}

func TestLossBreaksEquality(t *testing.T) {
	c := ESnetPath(0.08)
	c.LossRate = 1e-4
	size := 4e9
	r1, _ := c.Transfer(size, 1)
	r8, _ := c.Transfer(size, 8)
	if r8.ThroughputBps < 1.5*r1.ThroughputBps {
		t.Errorf("with loss, 8-stream should clearly beat 1-stream: %v vs %v",
			r8.ThroughputBps, r1.ThroughputBps)
	}
}

// plateauOnsetBytes returns the smallest transfer size whose modelled
// throughput reaches frac of the steady rate, found by geometric
// bisection: the "knee" sizes the paper reads off Fig 3.
func plateauOnsetBytes(t *testing.T, c Config, streams int, frac float64) float64 {
	t.Helper()
	lo, hi := c.MSSBytes, 64e9
	r, err := c.Transfer(hi, streams)
	if err != nil {
		t.Fatal(err)
	}
	target := frac * r.SteadyBps
	if r.ThroughputBps < target {
		t.Fatalf("%d streams: plateau not reachable", streams)
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(lo * hi)
		rm, err := c.Transfer(mid, streams)
		if err != nil {
			t.Fatal(err)
		}
		if rm.ThroughputBps >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

func TestPlateauOnsetOrdering(t *testing.T) {
	c := ESnetPath(0.08)
	k1 := plateauOnsetBytes(t, c, 1, 0.9)
	k8 := plateauOnsetBytes(t, c, 8, 0.9)
	if k8 >= k1 {
		t.Errorf("8-stream knee %v should come before 1-stream knee %v", k8, k1)
	}
	// Shape check against the paper's Fig 3 readings (146 MB and 575 MB):
	// the knees should fall within a factor of ~4 of those sizes.
	within := func(got, want float64) bool { return got > want/4 && got < want*4 }
	if !within(k8, 146e6) {
		t.Errorf("8-stream knee = %v bytes, want within 4x of 146 MB", k8)
	}
	if !within(k1, 575e6) {
		t.Errorf("1-stream knee = %v bytes, want within 4x of 575 MB", k1)
	}
}

func TestThroughputMonotoneInSize(t *testing.T) {
	c := ESnetPath(0.08)
	prev := 0.0
	for _, mb := range []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048} {
		r, err := c.Transfer(mb*1e6, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.ThroughputBps < prev-1 {
			t.Errorf("throughput dropped at %v MB: %v < %v", mb, r.ThroughputBps, prev)
		}
		prev = r.ThroughputBps
	}
}

func TestSteadyRespectsAggregateCap(t *testing.T) {
	c := ESnetPath(0.08)
	r, _ := c.Transfer(10e9, 16)
	if r.SteadyBps > c.AggregateCapBps+1 {
		t.Errorf("steady %v exceeds aggregate cap %v", r.SteadyBps, c.AggregateCapBps)
	}
	if r.ThroughputBps > c.AggregateCapBps+1 {
		t.Errorf("throughput %v exceeds aggregate cap", r.ThroughputBps)
	}
}

func TestUncappedReachesBufferLimit(t *testing.T) {
	c := ESnetPath(0.08)
	c.AggregateCapBps = 0
	// 1 stream, 2 MB buffer, 80 ms RTT -> 200 Mbps window limit.
	r, _ := c.Transfer(50e9, 1)
	want := c.StreamBufBytes * 8 / c.RTTSec
	if math.Abs(r.SteadyBps-want)/want > 0.01 {
		t.Errorf("steady = %v, want %v", r.SteadyBps, want)
	}
}

func TestBottleneckShareCapsWindow(t *testing.T) {
	c := ESnetPath(0.08)
	c.AggregateCapBps = 0
	c.BottleneckBps = 100e6 // slow path
	r, _ := c.Transfer(10e9, 8)
	if r.SteadyBps > 100e6+1 {
		t.Errorf("steady %v exceeds bottleneck", r.SteadyBps)
	}
}

func TestRampShorterWithMoreStreams(t *testing.T) {
	c := ESnetPath(0.08)
	r1, _ := c.Transfer(10e9, 1)
	r8, _ := c.Transfer(10e9, 8)
	if r8.RampSec >= r1.RampSec {
		t.Errorf("8-stream ramp %v should be shorter than 1-stream ramp %v",
			r8.RampSec, r1.RampSec)
	}
}

func TestDurationScalesLinearlyAtPlateau(t *testing.T) {
	c := ESnetPath(0.08)
	rA, _ := c.Transfer(8e9, 8)
	rB, _ := c.Transfer(16e9, 8)
	// Doubling a plateau-dominated transfer should roughly double duration.
	ratio := rB.DurationSec / rA.DurationSec
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("duration ratio = %v, want ~2", ratio)
	}
}
