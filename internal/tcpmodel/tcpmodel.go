// Package tcpmodel models TCP throughput for GridFTP transfers on high
// bandwidth-delay-product paths: slow start, congestion avoidance up to a
// buffer-limited window, parallel streams, an aggregate server-side cap,
// and an optional random-loss regime.
//
// The model explains the paper's Figures 3–5: with n parallel streams the
// aggregate congestion window grows n times faster, so small files finish
// while 1-stream transfers are still ramping (8-stream wins), while large
// files spend almost all their time at the common buffer/server-limited
// plateau (equal throughput). The paper infers from that equality that
// packet losses are rare; setting LossRate > 0 in this model breaks the
// equality the same way real losses would, which the ablation bench
// demonstrates.
package tcpmodel

import (
	"errors"
	"math"
)

// Config describes one end-to-end TCP path and its endpoints.
type Config struct {
	// RTTSec is the round-trip time in seconds.
	RTTSec float64
	// MSSBytes is the maximum segment size (9000-byte MTU minus headers on
	// ESnet-like research networks).
	MSSBytes float64
	// InitCwndSegments is the initial congestion window in segments.
	InitCwndSegments float64
	// SSThreshBytes is the initial slow-start threshold: cwnd doubles per
	// RTT below it and grows one MSS per RTT above it.
	SSThreshBytes float64
	// StreamBufBytes is the per-stream socket buffer; it caps the
	// congestion window (the "TCP buffer size" field in GridFTP logs).
	StreamBufBytes float64
	// AggregateCapBps caps the sum of all stream rates (server NIC, disk
	// subsystem, or shared CPU limit). 0 = uncapped.
	AggregateCapBps float64
	// BottleneckBps is the network path capacity shared by the streams.
	BottleneckBps float64
	// LossRate is the segment loss probability. 0 models the loss-free
	// regime the paper observes; > 0 enables Reno-style halving via the
	// Mathis steady-state bound.
	LossRate float64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.RTTSec <= 0:
		return errors.New("tcpmodel: RTT must be positive")
	case c.MSSBytes <= 0:
		return errors.New("tcpmodel: MSS must be positive")
	case c.InitCwndSegments <= 0:
		return errors.New("tcpmodel: initial cwnd must be positive")
	case c.SSThreshBytes < c.MSSBytes:
		return errors.New("tcpmodel: ssthresh below one MSS")
	case c.StreamBufBytes < c.MSSBytes:
		return errors.New("tcpmodel: stream buffer below one MSS")
	case c.BottleneckBps <= 0:
		return errors.New("tcpmodel: bottleneck must be positive")
	case c.AggregateCapBps < 0:
		return errors.New("tcpmodel: negative aggregate cap")
	case c.LossRate < 0 || c.LossRate >= 1:
		return errors.New("tcpmodel: loss rate outside [0,1)")
	}
	return nil
}

// ESnetPath returns a configuration for a cross-country research network
// path: 10 Gbps bottleneck, jumbo frames, 4 MB socket buffers, and a
// server-side aggregate cap of 200 Mbps matching the long-file plateau the
// paper reports for SLAC–BNL (Fig 3: "median throughput is the same, at
// approximately 200 Mbps" for large files).
func ESnetPath(rttSec float64) Config {
	return Config{
		RTTSec:           rttSec,
		MSSBytes:         8960,
		InitCwndSegments: 10,
		SSThreshBytes:    64 << 10,
		StreamBufBytes:   2 << 20,
		AggregateCapBps:  200e6,
		BottleneckBps:    10e9,
		LossRate:         0,
	}
}

// steadyWindowBytes returns the per-stream window ceiling.
func (c Config) steadyWindowBytes(streams int) float64 {
	w := c.StreamBufBytes
	// Loss-limited window per Mathis et al.: MSS * 1.22 / sqrt(p).
	if c.LossRate > 0 {
		if lw := c.MSSBytes * 1.22 / math.Sqrt(c.LossRate); lw < w {
			w = lw
		}
	}
	// A stream can never use more than its share of the bottleneck.
	if bw := c.BottleneckBps * c.RTTSec / 8 / float64(streams); bw < w {
		w = bw
	}
	return math.Max(w, c.MSSBytes)
}

// Result describes one modelled transfer.
type Result struct {
	DurationSec   float64
	ThroughputBps float64
	// RampSec is the time spent below 99% of the steady aggregate rate.
	RampSec float64
	// SteadyBps is the aggregate plateau rate.
	SteadyBps float64
}

// Transfer models moving sizeBytes using the given number of parallel
// streams and returns the transfer's duration and average throughput.
// The model steps RTT by RTT: each stream's congestion window doubles per
// RTT below ssthresh, then grows one MSS per RTT, capped by the buffer,
// the loss bound and the stream's bottleneck share; the instantaneous
// aggregate rate is additionally capped by AggregateCapBps.
func (c Config) Transfer(sizeBytes float64, streams int) (Result, error) {
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if sizeBytes <= 0 {
		return Result{}, errors.New("tcpmodel: size must be positive")
	}
	if streams < 1 {
		return Result{}, errors.New("tcpmodel: at least one stream")
	}
	wMax := c.steadyWindowBytes(streams)
	steady := float64(streams) * wMax * 8 / c.RTTSec
	if c.AggregateCapBps > 0 && steady > c.AggregateCapBps {
		steady = c.AggregateCapBps
	}
	if steady > c.BottleneckBps {
		steady = c.BottleneckBps
	}

	cwnd := c.InitCwndSegments * c.MSSBytes
	if cwnd > wMax {
		cwnd = wMax
	}
	remaining := sizeBytes
	elapsed := 0.0
	ramp := 0.0
	rampDone := false
	// Step until the window reaches its ceiling; afterwards the rate is
	// constant and the remainder is closed analytically.
	for remaining > 0 {
		rate := float64(streams) * cwnd * 8 / c.RTTSec
		if c.AggregateCapBps > 0 && rate > c.AggregateCapBps {
			rate = c.AggregateCapBps
		}
		if rate > c.BottleneckBps {
			rate = c.BottleneckBps
		}
		if !rampDone && rate >= 0.99*steady {
			ramp = elapsed
			rampDone = true
		}
		atCeiling := cwnd >= wMax || rate >= steady
		if atCeiling {
			elapsed += remaining * 8 / rate
			remaining = 0
			break
		}
		perRTT := rate * c.RTTSec / 8
		if perRTT >= remaining {
			elapsed += remaining * 8 / rate
			remaining = 0
			break
		}
		remaining -= perRTT
		elapsed += c.RTTSec
		if cwnd < c.SSThreshBytes {
			cwnd *= 2
			if cwnd > c.SSThreshBytes {
				cwnd = c.SSThreshBytes
			}
		} else {
			cwnd += c.MSSBytes
		}
		if cwnd > wMax {
			cwnd = wMax
		}
	}
	if !rampDone {
		ramp = elapsed
	}
	return Result{
		DurationSec:   elapsed,
		ThroughputBps: sizeBytes * 8 / elapsed,
		RampSec:       ramp,
		SteadyBps:     steady,
	}, nil
}
