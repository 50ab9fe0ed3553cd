package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// iqr returns the distance between the first and the third quartile.
func iqr(v []float64) float64 {
	s := sortedCopy(v)
	return quantile(s, 0.75) - quantile(s, 0.25)
}

// tailPercentiles are the candidates of the tail rule, highest first,
// each with the share of samples beyond it in thousandths (integers, so
// that "exactly ten beyond" is not lost to rounding).
var tailPercentiles = []struct {
	p             float64
	beyondPerMile int
}{{99.9, 1}, {99, 10}, {95, 50}, {90, 100}}

// tailPercentile picks the percentile a sample of n supports: the
// highest candidate with at least ten samples beyond it. Below twenty
// samples even p50 leaves fewer than ten beyond, and the median is all
// the sample can say; the rule then returns 50.
func tailPercentile(n int) float64 {
	for _, c := range tailPercentiles {
		if n*c.beyondPerMile >= 10*1000 {
			return c.p
		}
	}
	return 50
}

// usage is one reading of the process's cumulative resource counters.
type usage struct {
	wall      time.Time
	user, sys time.Duration
	alloc     uint64
	gcCount   uint32
	gcPause   time.Duration
	maxRSSKiB int64
}

// readUsage reads getrusage(RUSAGE_SELF) — every thread of the process,
// so client, servers and harness together — and the Go allocator's
// cumulative counters.
func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage fails only on a bad `who`; RUSAGE_SELF is always valid.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		wall:      time.Now(),
		user:      time.Duration(ru.Utime.Nano()),
		sys:       time.Duration(ru.Stime.Nano()),
		alloc:     ms.TotalAlloc,
		gcCount:   ms.NumGC,
		gcPause:   time.Duration(ms.PauseTotalNs),
		maxRSSKiB: ru.Maxrss,
	}
}

// section is the difference between two usage readings around a timed
// section.
type section struct {
	wall, user, sys time.Duration
	allocBytes      uint64
	gcCount         uint32
	gcPause         time.Duration
	maxRSSKiB       int64
}

func (a usage) until(b usage) section {
	return section{
		wall:       b.wall.Sub(a.wall),
		user:       b.user - a.user,
		sys:        b.sys - a.sys,
		allocBytes: b.alloc - a.alloc,
		gcCount:    b.gcCount - a.gcCount,
		gcPause:    b.gcPause - a.gcPause,
		maxRSSKiB:  b.maxRSSKiB,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
