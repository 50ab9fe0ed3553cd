package dtnsched

import (
	"math/rand"
	"testing"

	"gftpvc/internal/simclock"
	"gftpvc/internal/stats"
)

// Reservations returns the number of live bookings on the calendar. It
// is declared in a test file because only tests need the count.
func (c *Calendar) Reservations() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.bookings)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("zero capacity should fail")
	}
	if _, err := New(-1); err == nil {
		t.Error("negative capacity should fail")
	}
}

func TestAvailableEmpty(t *testing.T) {
	s, _ := New(2e9)
	got, err := s.Available(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2e9 {
		t.Errorf("Available = %v, want 2e9", got)
	}
	if _, err := s.Available(5, 5); err == nil {
		t.Error("empty interval should fail")
	}
}

func TestReserveAndOverlap(t *testing.T) {
	s, _ := New(2e9)
	r1, err := s.Reserve(1.5e9, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reserve(1e9, 50, 150); err == nil {
		t.Fatal("overlapping overbooking should fail")
	}
	if _, err := s.Reserve(0.5e9, 50, 150); err != nil {
		t.Fatalf("fitting reservation rejected: %v", err)
	}
	s.Release(r1.ID)
	if _, err := s.Reserve(1.5e9, 0, 100); err != nil {
		t.Fatalf("post-release reservation rejected: %v", err)
	}
}

func TestReserveValidation(t *testing.T) {
	s, _ := New(2e9)
	if _, err := s.Reserve(0, 0, 1); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := s.Reserve(3e9, 0, 1); err == nil {
		t.Error("above-capacity rate should fail")
	}
	if _, err := s.Reserve(1e9, 1, 1); err == nil {
		t.Error("empty window should fail")
	}
}

func TestReserveEarliestImmediateWhenFree(t *testing.T) {
	s, _ := New(2e9)
	r, err := s.ReserveEarliest(1e9, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 10 || r.End != 70 {
		t.Errorf("slot = [%v,%v), want [10,70)", r.Start, r.End)
	}
}

func TestReserveEarliestQueuesBehindLoad(t *testing.T) {
	s, _ := New(2e9)
	// Saturate [0, 100).
	if _, err := s.Reserve(2e9, 0, 100); err != nil {
		t.Fatal(err)
	}
	r, err := s.ReserveEarliest(1e9, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 100 {
		t.Errorf("slot starts at %v, want 100 (after the saturating booking)", r.Start)
	}
}

func TestReserveEarliestPacksPartialHeadroom(t *testing.T) {
	s, _ := New(2e9)
	s.Reserve(1.5e9, 0, 100)
	// 0.5 Gbps fits alongside immediately.
	r, err := s.ReserveEarliest(0.5e9, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start != 0 {
		t.Errorf("slot starts at %v, want 0", r.Start)
	}
}

func TestScheduleTransfersZeroVariance(t *testing.T) {
	// The paper's counterfactual: the contended NERSC-ANL-style workload,
	// scheduled, runs every transfer at its reserved rate.
	s, _ := New(2.19e9)
	rng := rand.New(rand.NewSource(4))
	var reqs []TransferRequest
	for i := 0; i < 60; i++ {
		reqs = append(reqs, TransferRequest{
			At:        simclock.Time(float64(i) * 20),
			SizeBytes: 8e9,
			RateBps:   0.9e9,
		})
	}
	_ = rng
	out, err := s.ScheduleTransfers(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var ths, waits []float64
	for _, o := range out {
		ths = append(ths, o.ThroughputBps)
		waits = append(waits, o.WaitSec)
	}
	thr := stats.MustSummarize(ths)
	if thr.CV() != 0 {
		t.Errorf("scheduled throughput CV = %v, want 0", thr.CV())
	}
	// Scheduling trades variance for bounded wait; with demand above
	// capacity (0.9G every 20s = 71s service each, 2 concurrent fit),
	// some transfers must wait.
	ws := stats.MustSummarize(waits)
	if ws.Max == 0 {
		t.Error("expected nonzero waits under over-demand")
	}
}

func TestScheduleTransfersValidation(t *testing.T) {
	s, _ := New(1e9)
	if _, err := s.ScheduleTransfers([]TransferRequest{{SizeBytes: 0, RateBps: 1}}); err == nil {
		t.Error("zero size should fail")
	}
	if _, err := s.ScheduleTransfers([]TransferRequest{{SizeBytes: 1, RateBps: 0}}); err == nil {
		t.Error("zero rate should fail")
	}
}
