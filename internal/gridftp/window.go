package gridftp

import (
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"time"
)

// ErrWindowFull reports a block that lands beyond the assembler's
// sliding window: it cannot be buffered until earlier bytes are
// delivered to the sink. Streaming receivers park the placing goroutine
// (PlaceBlocking) instead of failing, which turns the bounded window
// into TCP backpressure on the sender.
var ErrWindowFull = errors.New("gridftp: block beyond reassembly window")

// ErrWindowStalled reports a parked placement that waited longer than
// the assembler's park timeout for the window to slide — the signature
// of a sender whose low-offset stripe died while a high-offset stripe
// kept going.
var ErrWindowStalled = errors.New("gridftp: reassembly window stalled")

// WindowAssembler reassembles MODE E blocks into a contiguous stream
// with bounded memory: a fixed-size sliding window buffers out-of-order
// blocks, and every byte that becomes contiguous with the delivery
// watermark is flushed to the sink immediately. A block that lands on
// the watermark goes straight to the sink, even while others are
// parked, and the window (plus its 1-bit-per-byte presence map) is made
// whole only when the first block has to be buffered: memory is nothing
// until a block parks and the window from then on, whatever the size.
// Every transfer on both endpoints reassembles through one.
//
// The window is the fallback, not the common path. Once a transfer's
// drain loops have announced how many they are, a block read beyond the
// watermark is held, uncopied, in its loop's frame buffer while a
// sibling loop is still reading (neither finished nor waiting beyond
// the watermark): when each connection's offsets ascend, that sibling
// carries the gap. The window takes only the blocks no sibling can
// fill the gap for.
//
// Concurrent Place/PlaceBlocking calls from parallel data connections
// are safe; flushes to the sink are serialized under the assembler's
// lock, so the sink needs no locking of its own.
//
// The assembler distinguishes wire bytes (every payload byte offered,
// including duplicates a resumed transfer re-sends) from delivered
// bytes (bytes flushed to the sink exactly once), the counters that
// make redundant-retry traffic visible.
type WindowAssembler struct {
	mu   sync.Mutex
	cond *sync.Cond
	sink io.Writer

	win    []byte   // ring buffer, indexed by absolute offset % window; nil until a block parks
	bits   presence // presence bitmap over the same ring
	window uint64

	base    uint64 // region start: delivery begins here
	end     uint64 // region end (exclusive); ^uint64(0) when unbounded
	flushed uint64 // next absolute offset to deliver
	pending uint64 // bytes buffered in-window, not yet contiguous

	wire      int64 // payload bytes offered, duplicates included
	dup       int64 // duplicate bytes dropped or overwritten
	delivered int64 // bytes flushed to the sink

	parkMax time.Duration
	failed  error

	loops    int      // drain loops announced; holds need two or more
	finished int      // announced loops that have returned
	waiting  []uint64 // offsets of the blocks placers are waiting with

	// OnPark, when set, is invoked (under the assembler lock) the first
	// time a PlaceBlocking call parks waiting for the window to slide,
	// with the blocked block's offset — the flight-recorder hook for
	// receiver-side backpressure. A block held for a sibling loop's gap
	// is not parked and does not fire it. Set it before any data arrives.
	OnPark func(offset uint64)
}

// unboundedEnd marks a region whose total size is unknown (a STOR
// receiver learns the size only from the blocks themselves).
const unboundedEnd = ^uint64(0)

// DefaultWindowSize is the mode-E reassembly window used when a
// streaming API is not told otherwise. Stripe skew is absorbed first by
// the kernel socket buffers, behind loops holding blocks for their gap;
// the window takes only what no sibling loop can deliver the gap for.
// It is what a transfer holds once a block has parked; a transfer whose
// blocks all arrive in order (one stream, a one-block object, or
// ascending offsets on every connection) holds none of it.
const DefaultWindowSize = 4 << 20

// defaultParkTimeout bounds how long a PlaceBlocking call may wait for
// the window to slide when the assembler was built without an explicit
// bound.
const defaultParkTimeout = 30 * time.Second

// NewWindowAssembler builds an assembler delivering the region
// [base, base+size) to sink. size < 0 means the region length is
// unknown (delivery still starts at base). window is the sliding
// buffer in bytes; parkMax bounds each PlaceBlocking wait (<= 0 uses a
// 30s default).
func NewWindowAssembler(sink io.Writer, base uint64, size int64, window int, parkMax time.Duration) (*WindowAssembler, error) {
	if sink == nil {
		return nil, errors.New("gridftp: nil window sink")
	}
	if window < 1 {
		return nil, errors.New("gridftp: window must be positive")
	}
	if parkMax <= 0 {
		parkMax = defaultParkTimeout
	}
	end := unboundedEnd
	if size >= 0 {
		end = base + uint64(size)
	}
	a := &WindowAssembler{
		sink:    sink,
		window:  uint64(window),
		base:    base,
		end:     end,
		flushed: base,
		parkMax: parkMax,
	}
	a.cond = sync.NewCond(&a.mu)
	return a, nil
}

// Place stores one block without blocking. Blocks entirely below the
// delivery watermark are dropped as duplicates (a resumed sender
// overlapping its restart point); blocks extending beyond the window
// return ErrWindowFull with no state change, so the caller can retry
// after the window slides (PlaceBlocking does exactly that). Blocks
// outside the announced region are protocol errors.
func (a *WindowAssembler) Place(b Block) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.placeLocked(b)
}

func (a *WindowAssembler) placeLocked(b Block) error {
	if a.failed != nil {
		return a.failed
	}
	n := uint64(len(b.Data))
	if n == 0 {
		return nil
	}
	off := b.Offset
	end := off + n
	if end < off { // offset overflow
		return fmt.Errorf("%w: block [%d,+%d) overflows", ErrDataProtocol, off, n)
	}
	if off < a.base || (a.end != unboundedEnd && end > a.end) {
		return fmt.Errorf("%w: block [%d,%d) outside region [%d,%d)",
			ErrDataProtocol, off, end, a.base, a.end)
	}
	if end <= a.flushed {
		// Entirely behind the watermark: pure duplicate, drop it.
		a.wire += int64(n)
		a.dup += int64(n)
		return nil
	}
	// Trim the duplicate prefix a resumed sender re-sends.
	skip := uint64(0)
	if off < a.flushed {
		skip = a.flushed - off
	}
	data := b.Data[skip:]
	off += skip
	if off+uint64(len(data)) > a.flushed+a.window {
		if uint64(len(b.Data)) > a.window {
			// Can never fit no matter how far the window slides.
			return fmt.Errorf("%w: %d-byte block exceeds %d-byte window",
				ErrDataProtocol, len(b.Data), a.window)
		}
		return ErrWindowFull
	}
	// Committed: nothing below rejects the block, so it counts as offered.
	a.wire += int64(n)
	a.dup += int64(skip)
	lo, hi, rest := a.ringSpan(off, uint64(len(data)))
	if off == a.flushed {
		// At the watermark: straight to the sink, even past parked
		// blocks; parked bytes it covers were in-window duplicates.
		if a.writeSink(data) != nil {
			return a.failed
		}
		if a.pending > 0 {
			covered := a.bits.clear(lo, hi) + a.bits.clear(0, rest)
			a.dup += int64(covered)
			a.pending -= uint64(covered)
		}
		a.flushed += uint64(len(data))
		a.delivered += int64(len(data))
		a.cond.Broadcast()
	} else {
		// The block parks: copy it into the ring (made by the first) and
		// set its presence bits; those already set were duplicates.
		if a.win == nil {
			a.win = make([]byte, a.window)
			a.bits = make(presence, (a.window+63)/64)
		}
		copy(a.win[lo:hi], data)
		copy(a.win[:rest], data[hi-lo:])
		fresh := a.bits.set(lo, hi) + a.bits.set(0, rest)
		a.dup += int64(len(data)) - int64(fresh)
		a.pending += uint64(fresh)
	}
	a.advanceLocked()
	// A sink failure during the flush surfaces on the call that
	// triggered it, not just on later ones.
	return a.failed
}

// ringSpan maps the n ring positions from absolute offset off onto
// the ring: [lo, hi) up to the wrap point, then [0, rest) past it.
func (a *WindowAssembler) ringSpan(off, n uint64) (lo, hi, rest uint64) {
	lo = off % a.window
	if hi = lo + n; hi > a.window {
		return lo, a.window, hi - a.window
	}
	return lo, hi, 0
}

// advanceLocked flushes the contiguous run at the watermark to the
// sink, clears its presence bits, and wakes parked placers.
func (a *WindowAssembler) advanceLocked() {
	run := a.runLenLocked()
	if run == 0 {
		return
	}
	lo, hi, rest := a.ringSpan(a.flushed, run)
	if err := a.writeSink(a.win[lo:hi]); err != nil {
		return
	}
	if rest > 0 {
		if err := a.writeSink(a.win[:rest]); err != nil {
			return
		}
	}
	a.bits.clear(lo, hi)
	a.bits.clear(0, rest)
	a.flushed += run
	a.pending -= run
	a.delivered += int64(run)
	a.cond.Broadcast()
}

// runLenLocked measures the contiguous present run starting at the
// watermark. It cannot exceed the pending bytes, so the scan stops there.
func (a *WindowAssembler) runLenLocked() uint64 {
	lo, hi, rest := a.ringSpan(a.flushed, a.pending)
	run := a.bits.run(lo, hi)
	if run == hi-lo {
		run += a.bits.run(0, rest)
	}
	return run
}

// presence is the ring's 1-bit-per-byte map, walked a 64-bit word at a
// time: every range operation touches each word it covers once.
type presence []uint64

// word returns the index of the word holding bit lo, the mask of the
// bits of [lo, hi) in that word, and the first bit past them.
func (p presence) word(lo, hi uint64) (w, mask, next uint64) {
	n := min(hi-lo, 64-lo%64)
	return lo / 64, ^uint64(0) >> (64 - n) << (lo % 64), lo + n
}

// set sets bits [lo, hi) and returns how many of them were clear:
// masks for a partial first and last word, whole words between them
// filled in one pass.
func (p presence) set(lo, hi uint64) int {
	fresh := 0
	for lo < hi {
		if lo%64 == 0 && hi-lo >= 64 {
			ws := p[lo/64 : hi/64]
			for i, w := range ws {
				fresh += bits.OnesCount64(^w)
				ws[i] = ^uint64(0)
			}
			lo += uint64(len(ws)) * 64
			continue
		}
		w, mask, next := p.word(lo, hi)
		fresh += bits.OnesCount64(mask &^ p[w])
		p[w] |= mask
		lo = next
	}
	return fresh
}

// clear clears bits [lo, hi) and returns how many of them were set:
// masks for a partial first and last word, whole words between them
// in one pass.
func (p presence) clear(lo, hi uint64) int {
	was := 0
	for lo < hi {
		if lo%64 == 0 && hi-lo >= 64 {
			ws := p[lo/64 : hi/64]
			for i, w := range ws {
				was += bits.OnesCount64(w)
				ws[i] = 0
			}
			lo += uint64(len(ws)) * 64
			continue
		}
		w, mask, next := p.word(lo, hi)
		was += bits.OnesCount64(p[w] & mask)
		p[w] &^= mask
		lo = next
	}
	return was
}

// run returns the length of the run of set bits starting at lo,
// counting no further than hi.
func (p presence) run(lo, hi uint64) uint64 {
	if lo == hi {
		return 0
	}
	first := lo / 64
	for w, x := range p[first : (hi+63)/64] {
		if w == 0 {
			x |= 1<<(lo%64) - 1 // the bits below lo do not end the run
		}
		if x != ^uint64(0) {
			return min((first+uint64(w))*64+uint64(bits.TrailingZeros64(^x)), hi) - lo
		}
	}
	return hi - lo
}

// writeSink forwards one flushed segment; a sink failure fails the
// whole assembler (every later Place reports it).
func (a *WindowAssembler) writeSink(p []byte) error {
	if _, err := a.sink.Write(p); err != nil {
		if a.failed == nil {
			a.failed = fmt.Errorf("gridftp: window sink: %w", err)
		}
		a.cond.Broadcast()
		return a.failed
	}
	return nil
}

// PlaceBlocking is Place with backpressure: a block beyond the window
// parks the calling goroutine until earlier bytes flush and the window
// slides. A park that sees no slide for the assembler's timeout fails
// with ErrWindowStalled, and Abort wakes every parked caller with the
// aborting error — no goroutine is left parked forever.
func (a *WindowAssembler) PlaceBlocking(b Block) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	var timer *time.Timer
	var deadline time.Time
	mark, parked := a.flushed, false
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		hold := a.holdLocked(b)
		if !hold {
			err := a.placeLocked(b)
			if !errors.Is(err, ErrWindowFull) {
				return err
			}
			if !parked && a.OnPark != nil {
				a.OnPark(b.Offset)
			}
			parked = true
		}
		switch {
		case timer == nil:
			timer = time.AfterFunc(a.parkMax, a.wake)
			deadline = time.Now().Add(a.parkMax)
		case a.flushed != mark:
			// The window slid: the timeout bounds a wait without progress.
			mark, deadline = a.flushed, time.Now().Add(a.parkMax)
			timer.Reset(a.parkMax)
		case !time.Now().Before(deadline):
			if a.failed == nil {
				a.failed = ErrWindowStalled
				a.cond.Broadcast()
			}
			return ErrWindowStalled
		}
		a.waiting = append(a.waiting, b.Offset)
		if !hold {
			a.cond.Broadcast() // a loop holding for this one falls back
		}
		a.cond.Wait()
		i := slices.Index(a.waiting, b.Offset)
		a.waiting = slices.Delete(a.waiting, i, i+1)
	}
}

// holdLocked reports whether b, beyond the watermark, waits uncopied in
// its drain loop's frame buffer: a sibling loop has neither finished nor
// is waiting beyond the watermark, so it is reading and, when each
// connection's offsets ascend, carries the gap. Blocks placeLocked
// rejects are not held.
func (a *WindowAssembler) holdLocked(b Block) bool {
	end := b.Offset + uint64(len(b.Data))
	if a.loops < 2 || a.failed != nil || b.Offset <= a.flushed || end < b.Offset ||
		end > a.end || uint64(len(b.Data)) > a.window {
		return false
	}
	idle := a.finished + 1 // this loop
	for _, off := range a.waiting {
		if off > a.flushed {
			idle++
		}
	}
	return idle < a.loops
}

// wake rouses every waiting placer to check its deadline.
func (a *WindowAssembler) wake() {
	a.mu.Lock()
	a.cond.Broadcast()
	a.mu.Unlock()
}

// Abort fails the assembler: parked placers wake with err and every
// later operation reports it. The first abort wins; later calls are
// no-ops.
func (a *WindowAssembler) Abort(err error) {
	if err == nil {
		err = errors.New("gridftp: window aborted")
	}
	a.mu.Lock()
	if a.failed == nil {
		a.failed = err
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// Finish validates completion: no gap may remain parked in the window,
// and when the region size was announced every byte must have been
// delivered.
func (a *WindowAssembler) Finish() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.failed != nil {
		return a.failed
	}
	if a.pending > 0 {
		return fmt.Errorf("%w: %d bytes parked behind a gap at offset %d",
			ErrDataProtocol, a.pending, a.flushed)
	}
	if a.end != unboundedEnd && a.flushed != a.end {
		return fmt.Errorf("%w: incomplete transfer: delivered to %d, want %d",
			ErrDataProtocol, a.flushed, a.end)
	}
	return nil
}

// Flushed returns the delivery watermark: the absolute offset of the
// next byte the sink has not yet received. This is the REST offset a
// resume-aware retry restarts from.
func (a *WindowAssembler) Flushed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushed
}

// Delivered returns the bytes flushed to the sink.
func (a *WindowAssembler) Delivered() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.delivered
}

// WireBytes returns every payload byte offered, duplicates included.
func (a *WindowAssembler) WireBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.wire
}

// DuplicateBytes returns the bytes that arrived more than once (the
// redundant traffic a restart-from-zero retry multiplies and a
// resume-aware retry bounds by one window).
func (a *WindowAssembler) DuplicateBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dup
}

// Window returns the configured window size in bytes.
func (a *WindowAssembler) Window() int { return int(a.window) }

// DrainConn reads frames from one data connection into the assembler
// until EOD, parking on out-of-window blocks. It returns the payload
// bytes read off this connection. On error the caller should Abort the
// assembler so sibling connections unpark.
func (a *WindowAssembler) DrainConn(r io.Reader) (int64, error) {
	return a.drain(&frameReader{r: r}, 0, unboundedEnd)
}

// drain is every transfer's per-connection read loop: it places the
// frames fr reads until EOD as one of loops drain loops (0: none
// announced, nothing is held), all announcing the same count before
// their first placement. A block past maxSize fails before any wait.
// It returns the payload bytes read.
func (a *WindowAssembler) drain(fr *frameReader, loops int, maxSize uint64) (int64, error) {
	a.mu.Lock()
	if a.loops == 0 {
		a.loops, a.waiting = loops, make([]uint64, 0, loops)
	}
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		a.finished++
		a.cond.Broadcast() // a loop holding for this one falls back
		a.mu.Unlock()
	}()
	var n int64
	for {
		b, err := fr.next()
		if err != nil {
			return n, err
		}
		n += int64(len(b.Data))
		if len(b.Data) > 0 {
			if b.Offset > maxSize || uint64(len(b.Data)) > maxSize-b.Offset {
				return n, fmt.Errorf("%w: block at offset %d exceeds the %d-byte object limit",
					ErrDataProtocol, b.Offset, maxSize)
			}
			if err := a.PlaceBlocking(b); err != nil {
				return n, err
			}
		}
		if b.Desc&DescEOD != 0 {
			return n, nil
		}
	}
}
