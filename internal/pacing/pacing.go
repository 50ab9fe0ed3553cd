// Package pacing enforces reserved rates on the live data plane. A
// bandwidth reservation without an endpoint enforcement mechanism is
// advisory: the broker may hold a 1 Gb/s circuit, but unless the
// endpoints pace their sockets to the reserved rate, a VC-disposition
// transfer is indistinguishable on the wire from a best-effort one and
// the paper's variance collapse (Figs 7-8) never materializes.
//
// The package provides a monotonic-clock token bucket (Bucket), a
// Limiter that composes several buckets (per-transfer + per-session
// aggregate), and throttled io.Reader/io.Writer/net.Conn wrappers that
// the gridftp client and server slide under their data connections.
//
// Design notes:
//
//   - No background goroutine. Tokens refill lazily from the elapsed
//     monotonic time on each acquisition, so an idle bucket costs
//     nothing and never leaks.
//   - Debt model. WaitN deducts the full request immediately — tokens
//     may go negative — and sleeps off the debt. Requests larger than
//     the burst therefore need no chunking, and concurrent waiters are
//     approximately FIFO: a later arrival inherits the accumulated debt
//     of everyone before it, which is what makes the aggregate limiter
//     fair across streams.
//   - Rates are bits per second, matching the broker's reservation
//     units; tokens are bytes internally.
//   - Everything is nil-safe: a nil *Bucket or *Limiter means
//     "unshaped" and costs one pointer test on the data path, so the
//     shaped and unshaped code paths are the same code.
package pacing

import (
	"context"
	"io"
	"net"
	"sync"
	"time"
)

// DefaultBurstBytes is the floor on a bucket's burst when none is
// given: one bufio-sized write (the data planes flush in <= 64 KiB
// slices) passes unchunked even at low rates.
const DefaultBurstBytes = 64 << 10

// defaultBurst sizes a burst for a rate: ~25 ms worth of line rate,
// floored at DefaultBurstBytes. Large enough that the pacer sleeps in
// few-millisecond steps instead of per-write jitter, small enough that
// the shaped rate converges well inside a transfer.
func defaultBurst(rateBps int64) int64 {
	b := rateBps / 8 / 40 // bytes per 25 ms
	if b < DefaultBurstBytes {
		b = DefaultBurstBytes
	}
	return b
}

// A Bucket is a token bucket: capacity burst bytes, refilled at rateBps
// bits per second from a monotonic clock. The zero value is not usable;
// a nil Bucket is inert (no shaping).
type Bucket struct {
	mu      sync.Mutex
	rateBps int64
	burst   int64
	tokens  float64 // bytes; negative = debt already promised to waiters
	last    time.Time
	now     func() time.Time // injectable clock for tests and fuzzing
}

// NewBucket returns a bucket enforcing rateBps bits per second with the
// given burst in bytes (burstBytes <= 0 selects a default sized to the
// rate). rateBps <= 0 means "unshaped": NewBucket returns nil, which
// every method treats as a no-op.
func NewBucket(rateBps, burstBytes int64) *Bucket {
	if rateBps <= 0 {
		return nil
	}
	if burstBytes <= 0 {
		burstBytes = defaultBurst(rateBps)
	}
	b := &Bucket{rateBps: rateBps, burst: burstBytes, now: time.Now}
	b.last = b.now()
	b.tokens = float64(burstBytes) // start full: the first burst is free
	return b
}

// newBucketAt is NewBucket with an injected clock, for deterministic
// tests.
func newBucketAt(rateBps, burstBytes int64, now func() time.Time) *Bucket {
	b := NewBucket(rateBps, burstBytes)
	if b != nil {
		b.now = now
		b.last = now()
	}
	return b
}

// refillLocked credits tokens for the time elapsed since the last
// refill, capped at the burst. Caller holds b.mu.
func (b *Bucket) refillLocked() {
	t := b.now()
	if dt := t.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * float64(b.rateBps) / 8
		if max := float64(b.burst); b.tokens > max {
			b.tokens = max
		}
	}
	b.last = t
}

// take deducts n bytes immediately and returns how long the caller must
// sleep before the bucket has earned them back. Zero means "go now".
func (b *Bucket) take(n int64) time.Duration {
	if b == nil || n <= 0 {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens * 8 / float64(b.rateBps) * float64(time.Second))
}

// refund returns n bytes to the bucket (a cancelled WaitN gives back
// what it was never granted), capped at the burst.
func (b *Bucket) refund(n int64) {
	if b == nil || n <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.tokens += float64(n)
	if max := float64(b.burst); b.tokens > max {
		b.tokens = max
	}
}

// WaitN blocks until n bytes may pass, or until ctx is done — in which
// case the deducted tokens are refunded and ctx.Err() returned, so a
// cancelled transfer does not starve the streams still sharing the
// bucket. n may exceed the burst; the excess is paid for as debt. A nil
// Bucket returns immediately.
func (b *Bucket) WaitN(ctx context.Context, n int) error {
	if b == nil || n <= 0 {
		return nil
	}
	d := b.take(int64(n))
	if d <= 0 {
		return nil
	}
	if err := sleep(ctx, d); err != nil {
		b.refund(int64(n))
		return err
	}
	return nil
}

// SetRate re-rates the bucket in place — the live half of the broker's
// Modify path: when a lease extension re-books the circuit at a new
// rate, the in-flight job's bucket follows without a reconnect. Tokens
// accrued at the old rate are settled first. rateBps <= 0 is ignored
// (dropping to unshaped is a topology decision, not a re-rate).
func (b *Bucket) SetRate(rateBps int64) {
	if b == nil || rateBps <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked()
	b.rateBps = rateBps
}

// sleep waits for d or ctx, whichever ends first.
func sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// A Limiter composes one or more buckets: a transfer typically carries
// a fresh per-transfer bucket plus a shared per-session aggregate, and
// a byte must clear every bucket before it moves. A nil Limiter is
// inert.
type Limiter struct {
	buckets []*Bucket
}

// NewLimiter composes the given buckets, skipping nils. With no live
// bucket it returns nil — the unshaped fast path.
func NewLimiter(buckets ...*Bucket) *Limiter {
	var live []*Bucket
	for _, b := range buckets {
		if b != nil {
			live = append(live, b)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return &Limiter{buckets: live}
}

// With returns a limiter enforcing this limiter's buckets plus b — how
// a per-transfer bucket joins a session aggregate. The receiver is
// unchanged; the underlying buckets are shared.
func (l *Limiter) With(b *Bucket) *Limiter {
	if l == nil {
		return NewLimiter(b)
	}
	if b == nil {
		return l
	}
	return &Limiter{buckets: append(append([]*Bucket(nil), l.buckets...), b)}
}

// WaitN blocks until n bytes clear every bucket. On ctx cancellation
// the bucket being waited on is refunded and ctx.Err() returned;
// buckets already cleared stay debited (the bytes were promised and the
// error path tears the connection down anyway).
func (l *Limiter) WaitN(ctx context.Context, n int) error {
	if l == nil || n <= 0 {
		return nil
	}
	for _, b := range l.buckets {
		d := b.take(int64(n))
		if d <= 0 {
			continue
		}
		if err := sleep(ctx, d); err != nil {
			b.refund(int64(n))
			return err
		}
	}
	return nil
}

// A Conn paces bytes crossing a net.Conn: writes clear the limiter
// before hitting the socket, reads are charged after they land (the
// reader cannot shrink what the kernel already buffered, but charging
// keeps the long-run rate honest). onWait, when set, observes each
// throttle stall so spans can attribute shaped time.
type Conn struct {
	net.Conn
	lim    *Limiter
	ctx    context.Context
	onWait func(time.Duration)
}

// WrapConn paces c with lim. ctx bounds in-flight throttle waits (nil
// means none). If lim is nil, c is returned unwrapped — shaping off
// costs nothing.
func WrapConn(ctx context.Context, c net.Conn, lim *Limiter, onWait func(time.Duration)) net.Conn {
	if lim == nil {
		return c
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &Conn{Conn: c, lim: lim, ctx: ctx, onWait: onWait}
}

// wait clears n bytes through the limiter, reporting any stall to
// onWait.
func (c *Conn) wait(n int) error {
	if n <= 0 {
		return nil
	}
	start := time.Now()
	err := c.lim.WaitN(c.ctx, n)
	if c.onWait != nil {
		if d := time.Since(start); d > 0 {
			c.onWait(d)
		}
	}
	return err
}

// Write pays for p up front, then writes it whole — write atomicity is
// preserved (MODE E block framing depends on it) and oversize writes
// are absorbed as bucket debt rather than split.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.wait(len(p)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// Read charges for what actually arrived. A cancelled wait still
// delivers the bytes read — they exist and the caller's teardown path
// owns the error.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if werr := c.wait(n); werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}

// NewReader returns r throttled by lim; a nil lim returns r unwrapped.
func NewReader(ctx context.Context, r io.Reader, lim *Limiter) io.Reader {
	if lim == nil {
		return r
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &pacedReader{r: r, lim: lim, ctx: ctx}
}

type pacedReader struct {
	r   io.Reader
	lim *Limiter
	ctx context.Context
}

func (p *pacedReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	if n > 0 {
		if werr := p.lim.WaitN(p.ctx, n); werr != nil && err == nil {
			err = werr
		}
	}
	return n, err
}

// NewWriter returns w throttled by lim; a nil lim returns w unwrapped.
func NewWriter(ctx context.Context, w io.Writer, lim *Limiter) io.Writer {
	if lim == nil {
		return w
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return &pacedWriter{w: w, lim: lim, ctx: ctx}
}

type pacedWriter struct {
	w   io.Writer
	lim *Limiter
	ctx context.Context
}

func (p *pacedWriter) Write(b []byte) (int, error) {
	if err := p.lim.WaitN(p.ctx, len(b)); err != nil {
		return 0, err
	}
	return p.w.Write(b)
}
