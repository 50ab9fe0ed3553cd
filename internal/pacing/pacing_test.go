package pacing

import (
	"bytes"
	"context"
	"crypto/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced monotonic clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestNilSafety(t *testing.T) {
	var b *Bucket
	var l *Limiter
	if err := b.WaitN(context.Background(), 1<<20); err != nil {
		t.Fatalf("nil bucket WaitN: %v", err)
	}
	b.SetRate(5)
	if err := l.WaitN(context.Background(), 1<<20); err != nil {
		t.Fatalf("nil limiter WaitN: %v", err)
	}
	if NewBucket(0, 0) != nil {
		t.Fatalf("NewBucket(0) must be nil (unshaped)")
	}
	if NewLimiter(nil, nil) != nil {
		t.Fatalf("NewLimiter of nils must be nil")
	}
}

// TestBurstAfterIdleRefill: an idle bucket refills to — and is capped
// at — its burst, so the first burst-worth after idle passes free and
// the next byte pays full price.
func TestBurstAfterIdleRefill(t *testing.T) {
	clk := newFakeClock()
	const rate = 8e6 // 1 MB/s
	const burst = 64 << 10
	b := newBucketAt(rate, burst, clk.now)

	// Drain the initial burst plus extra; the bucket goes into debt.
	if d := b.take(burst + 1000); d <= 0 {
		t.Fatalf("over-burst take should owe a wait, got %v", d)
	}
	// A long idle must cap at one burst, not accumulate 10 s of rate.
	clk.advance(10 * time.Second)
	if d := b.take(burst); d != 0 {
		t.Fatalf("burst-sized take after idle should be free, waited %v", d)
	}
	if d := b.take(1); d <= 0 {
		t.Fatalf("bucket should be empty right after the burst, got wait %v", d)
	}
}

// TestWaitNCancelPromptAndRefund: cancelling mid-WaitN returns promptly
// and refunds the deducted tokens so other streams are not starved by
// debt nobody will use.
func TestWaitNCancelPromptAndRefund(t *testing.T) {
	b := NewBucket(8_000, 1024) // 1 KB/s: a big take waits for minutes
	b.take(1024)                // drain the burst
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() { done <- b.WaitN(ctx, 1<<20) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("WaitN did not return promptly after cancel")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancel took %v, want prompt return", d)
	}
	// Refunded: a small take should owe at most ~1 s (the 1 KB/s burst
	// deficit), not the ~17 min a leaked 1 MiB debt would cost.
	if d := b.take(10); d > 5*time.Second {
		t.Fatalf("tokens not refunded after cancel: next take owes %v", d)
	}
}

// TestAggregateFairness: 8 streams hammering one shared bucket each get
// within 2x of their fair share — the debt model's approximate FIFO at
// work.
func TestAggregateFairness(t *testing.T) {
	const (
		streams = 8
		rate    = 32e6 // 4 MB/s aggregate
		chunk   = 16 << 10
		runFor  = 700 * time.Millisecond
	)
	agg := NewBucket(rate, 64<<10)
	lim := NewLimiter(agg)
	ctx, cancel := context.WithTimeout(context.Background(), runFor)
	defer cancel()
	var wg sync.WaitGroup
	got := make([]int64, streams)
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				if err := lim.WaitN(ctx, chunk); err != nil {
					return
				}
				got[i] += chunk
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, n := range got {
		total += n
	}
	fair := total / streams
	if fair == 0 {
		t.Fatalf("no bytes moved")
	}
	for i, n := range got {
		if n > 2*fair || n < fair/2 {
			t.Fatalf("stream %d moved %d bytes, outside [1/2, 2]x fair share %d (all: %v)", i, n, fair, got)
		}
	}
	// The shared bucket held the aggregate to its burst plus its rate
	// over the run (with slack for waits the deadline cut short).
	if limit := int64((64<<10 + rate/8*runFor.Seconds()) * 1.25); total > limit {
		t.Fatalf("streams moved %d bytes in %v, want <= %d at the shared rate", total, runFor, limit)
	}
}

// TestShapedCopyByteIdentical: pacing must never corrupt or reorder the
// byte stream — a shaped copy is byte-identical to its source.
func TestShapedCopyByteIdentical(t *testing.T) {
	src := make([]byte, 256<<10)
	if _, err := rand.Read(src); err != nil {
		t.Fatal(err)
	}
	lim := NewLimiter(NewBucket(64e6, 32<<10)) // 8 MB/s: ~32 ms for 256 KiB
	var dst bytes.Buffer
	w := NewWriter(context.Background(), &dst, lim)
	r := NewReader(context.Background(), bytes.NewReader(src), lim)
	buf := make([]byte, 7000) // odd size: exercise partial chunks
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				t.Fatal(werr)
			}
		}
		if err != nil {
			break
		}
	}
	if !bytes.Equal(src, dst.Bytes()) {
		t.Fatalf("shaped copy differs from source")
	}
}

// TestRateEnforced: a real-clock sanity check that the bucket actually
// holds a flow near its configured rate.
func TestRateEnforced(t *testing.T) {
	const rate = 160e6 // 20 MB/s
	const n = 2 << 20  // 2 MiB => ~100 ms
	b := NewBucket(rate, 64<<10)
	ctx := context.Background()
	start := time.Now()
	moved := 0
	for moved < n {
		if err := b.WaitN(ctx, 16<<10); err != nil {
			t.Fatal(err)
		}
		moved += 16 << 10
	}
	elapsed := time.Since(start)
	ideal := time.Duration(float64(n) * 8 / rate * float64(time.Second))
	if elapsed < ideal/2 {
		t.Fatalf("2 MiB at 20 MB/s took %v, want >= %v", elapsed, ideal/2)
	}
	if elapsed > 10*ideal {
		t.Fatalf("2 MiB at 20 MB/s took %v, want <= %v", elapsed, 10*ideal)
	}
}

// TestSetRateLive: re-rating settles accrued tokens at the old rate and
// charges future traffic at the new one — the lease-extension path.
func TestSetRateLive(t *testing.T) {
	clk := newFakeClock()
	b := newBucketAt(8e6, 1024, clk.now) // 1 MB/s, tiny burst
	b.take(1024)                         // drain
	clk.advance(time.Millisecond)        // earn 1000 bytes at 1 MB/s
	b.SetRate(80e6)                      // x10
	// 1000 earned at old rate; take 11_000 => 10_000 debt at 10 MB/s = 1 ms.
	d := b.take(11_000)
	if d < 500*time.Microsecond || d > 2*time.Millisecond {
		t.Fatalf("post-SetRate wait %v, want ~1ms", d)
	}
	if b.rateBps != 80e6 {
		t.Fatalf("rate = %d after SetRate", b.rateBps)
	}
}

// TestLimiterWith: composition shares buckets, leaving the receiver
// unchanged.
func TestLimiterWith(t *testing.T) {
	agg := NewBucket(100e6, 0)
	per := NewBucket(40e6, 0)
	base := NewLimiter(agg)
	if l := base.With(per); !slices.Equal(l.buckets, []*Bucket{agg, per}) {
		t.Fatalf("composed buckets %v, want the aggregate then the per-transfer bucket", l.buckets)
	}
	if !slices.Equal(base.buckets, []*Bucket{agg}) {
		t.Fatalf("With changed its receiver: %v", base.buckets)
	}
	if l2 := (*Limiter)(nil).With(per); l2 == nil || !slices.Equal(l2.buckets, []*Bucket{per}) {
		t.Fatalf("nil.With(bucket) should compose a live limiter")
	}
	if l3 := base.With(nil); !slices.Equal(l3.buckets, []*Bucket{agg}) {
		t.Fatalf("With(nil) should keep the receiver's buckets")
	}
}
