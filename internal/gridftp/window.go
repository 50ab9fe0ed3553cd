package gridftp

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
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
// with bounded memory: out-of-order blocks are accepted only within a
// sliding window beyond the delivery watermark, and every byte that
// becomes contiguous with the watermark is flushed to the sink
// immediately. A block that lands on the watermark goes straight to the
// sink, even while others are parked, and a block beyond it that has to
// be kept is copied into a list of held runs. Memory is the most bytes
// held at once, never more than the window and in a bounded number of
// runs, and nothing while blocks arrive in order. Every transfer on both
// endpoints reassembles through one.
//
// The held list is the fallback, not the common path: once a transfer's
// drain loops have announced how many they are, a block beyond the
// watermark waits uncopied in its loop's frame buffer while a sibling
// loop that is still reading can carry the gap (holdLocked). Only the
// blocks no sibling can fill the gap for are copied.
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
	cond sync.Cond // on mu
	// timer, made by the first wait, wakes every waiting placer at
	// timerAt, the earliest of their deadlines (zero: not armed). It
	// outlives a re-arm (see reset).
	timer *time.Timer

	windowState

	// OnPark, when set, is invoked (under the assembler lock) the first
	// time a PlaceBlocking call parks waiting for the window to slide,
	// with the blocked block's offset — the flight-recorder hook for
	// receiver-side backpressure. A block held for a sibling loop's gap
	// is not parked and does not fire it. Set it before any data arrives.
	OnPark func(offset uint64)
}

// windowState is everything one region's reassembly sets, which reset
// replaces whole: a session's one STOR window starts each transfer
// from a fresh one.
type windowState struct {
	sink io.Writer

	held    [][]heldRun // runs copied beyond the watermark, in chunks: sorted by offset, never overlapping
	runs    int         // runs in held, at most maxRuns
	maxRuns int         // one per 4 KiB of window, at least 1<<15: a window under 32 KiB never reaches it
	spare   [][]byte    // buffers of delivered runs, for the next runs
	window  uint64

	base    uint64 // region start: delivery begins here
	end     uint64 // region end (exclusive); ^uint64(0) when unbounded
	flushed uint64 // next absolute offset to deliver
	pending uint64 // bytes in held runs, not yet contiguous
	copied  int64  // bytes ever copied into held runs

	wire      int64 // payload bytes offered, duplicates included
	dup       int64 // duplicate bytes dropped or overwritten
	delivered int64 // bytes flushed to the sink

	parkMax time.Duration
	failed  error
	timerAt time.Time

	loops    int       // drain loops announced; holds need two or more
	finished int       // announced loops that have returned
	waiting  []uint64  // offsets of the blocks placers are waiting with
	waitBuf  [2]uint64 // waiting's array for up to two drain loops
}

// heldRun is a run of bytes copied out of a block, at absolute offset off.
type heldRun struct {
	off  uint64
	data []byte
}

func (r heldRun) end() uint64 { return r.off + uint64(len(r.data)) }

// runChunk sizes the held list's chunks: one that grows past twice
// runChunk runs splits into halves.
const runChunk = 64

// unboundedEnd marks a region whose total size is unknown (a STOR
// receiver learns the size only from the blocks themselves).
const unboundedEnd = ^uint64(0)

// DefaultWindowSize is the mode-E reassembly window used when a
// streaming API is not told otherwise. A transfer holds at most the
// window, and only the bytes no sibling drain loop could carry the gap
// for; one whose blocks all arrive in order holds nothing.
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
	st, err := newWindowState(sink, base, size, window, parkMax)
	if err != nil {
		return nil, err
	}
	a := &WindowAssembler{windowState: st}
	a.cond.L = &a.mu
	return a, nil
}

// newWindowState validates NewWindowAssembler's arguments into the
// state of a window that has received nothing.
func newWindowState(sink io.Writer, base uint64, size int64, window int, parkMax time.Duration) (windowState, error) {
	if sink == nil {
		return windowState{}, errors.New("gridftp: nil window sink")
	}
	if window < 1 {
		return windowState{}, errors.New("gridftp: window must be positive")
	}
	if parkMax <= 0 {
		parkMax = defaultParkTimeout
	}
	end := unboundedEnd
	if size >= 0 {
		end = base + uint64(size)
	}
	return windowState{
		sink:    sink,
		window:  uint64(window),
		maxRuns: max(window/4096, 1<<15),
		base:    base,
		end:     end,
		flushed: base,
		parkMax: parkMax,
	}, nil
}

// reset re-arms a with st, dropping the last region's held runs, spare
// buffers, counters, failure and drain loops, so an assembler that is
// reused — a session's STOR window — carries nothing from one transfer
// into the next. The shared timer is stopped and kept; its callback may
// still run once, which only wakes placers to re-check their deadlines.
// Nothing may be placing when a is reset.
func (a *WindowAssembler) reset(st windowState) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.timer != nil {
		a.timer.Stop()
	}
	a.windowState = st
	a.cond.L = &a.mu // a zero assembler's first arming
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
	if off == a.flushed {
		// At the watermark: straight to the sink, even past held runs;
		// advanceLocked counts the held bytes it covers as duplicates.
		if a.writeSink(data) != nil {
			return a.failed
		}
		a.flushed += uint64(len(data))
		a.delivered += int64(len(data))
		a.cond.Broadcast()
	} else {
		a.insertLocked(off, data)
	}
	a.advanceLocked()
	// A sink failure during the flush surfaces on the call that
	// triggered it, not just on later ones.
	return a.failed
}

// insertLocked copies data, which starts beyond the watermark, into the
// held runs: bytes already held are overwritten in place (last write
// wins) and count as duplicates, and each gap between held runs becomes
// a run of its own. A run past maxRuns fails the assembler.
func (a *WindowAssembler) insertLocked(off uint64, data []byte) {
	a.copied += int64(len(data))
	// Start at the first held run that ends beyond off, or past the last.
	c := sort.Search(len(a.held), func(c int) bool { return a.held[c][len(a.held[c])-1].end() > off })
	i := 0
	if c < len(a.held) {
		i = sort.Search(len(a.held[c]), func(i int) bool { return a.held[c][i].end() > off })
	} else if c > 0 {
		c, i = c-1, len(a.held[c-1])
	}
	for len(data) > 0 {
		if c+1 < len(a.held) && i == len(a.held[c]) {
			c, i = c+1, 0
		}
		next := c < len(a.held) && i < len(a.held[c])
		var n int
		if next && a.held[c][i].off <= off {
			r := a.held[c][i]
			n = copy(r.data[off-r.off:], data)
			a.dup += int64(n)
		} else if a.runs >= a.maxRuns {
			a.failed = fmt.Errorf("%w: more than %d held runs", ErrDataProtocol, a.maxRuns)
			a.cond.Broadcast()
			return
		} else {
			n = len(data)
			if next {
				n = min(n, int(a.held[c][i].off-off))
			}
			buf := a.runBuffer(n)
			copy(buf, data)
			c, i = a.insertRun(c, i, heldRun{off, buf})
		}
		off, data, i = off+uint64(n), data[n:], i+1
	}
}

// insertRun puts r at index i of chunk c and returns where it landed: a
// chunk that grows past 2*runChunk runs splits in halves, so an insert
// moves at most a chunk of runs and a chunk header per runChunk runs.
func (a *WindowAssembler) insertRun(c, i int, r heldRun) (int, int) {
	if c == len(a.held) {
		a.held = append(a.held, nil)
	}
	a.held[c] = slices.Insert(a.held[c], i, r)
	a.runs++
	a.pending += uint64(len(r.data))
	if len(a.held[c]) > 2*runChunk {
		a.held = slices.Insert(a.held, c+1, a.held[c][runChunk:])
		a.held[c] = a.held[c][:runChunk:runChunk]
		if i >= runChunk {
			c, i = c+1, i-runChunk
		}
	}
	return c, i
}

// runBuffer returns an n-byte buffer for a new held run: the last
// delivered run's when it is the same size, as a sender's blocks are.
// On a miss the spares are dropped, so held and spare buffers together
// never exceed the window.
func (a *WindowAssembler) runBuffer(n int) []byte {
	if k := len(a.spare) - 1; k >= 0 && len(a.spare[k]) == n {
		buf := a.spare[k]
		a.spare = a.spare[:k]
		return buf
	}
	a.spare = nil
	return make([]byte, n)
}

// advanceLocked delivers the held runs the watermark has reached, in
// offset order, and wakes parked placers. Bytes of a run below the
// watermark were covered by a block written at it and count as
// duplicates. Each delivered run's buffer is kept for the next run.
func (a *WindowAssembler) advanceLocked() {
	moved := false
	for len(a.held) > 0 && a.held[0][0].off <= a.flushed && a.failed == nil {
		r := a.held[0][0]
		a.held[0][0] = heldRun{} // the chunk must not pin a spare the next miss drops
		if a.held[0] = a.held[0][1:]; len(a.held[0]) == 0 {
			a.held[0], a.held = nil, a.held[1:]
		}
		a.runs--
		a.pending -= uint64(len(r.data))
		a.spare = append(a.spare, r.data)
		skip := min(a.flushed-r.off, uint64(len(r.data)))
		a.dup += int64(skip)
		if rest := r.data[skip:]; len(rest) > 0 && a.writeSink(rest) == nil {
			a.flushed += uint64(len(rest))
			a.delivered += int64(len(rest))
		}
		moved = true
	}
	if moved {
		a.cond.Broadcast()
	}
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
	defer func() {
		if len(a.waiting) == 0 && a.timer != nil { // no placer waits
			a.timer.Stop()
			a.timerAt = time.Time{}
		}
	}()
	var deadline time.Time
	mark, parked := a.flushed, false
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
		switch now := time.Now(); {
		case deadline.IsZero() || a.flushed != mark:
			// The window slid: the timeout bounds a wait without progress.
			mark, deadline = a.flushed, now.Add(a.parkMax)
		case !now.Before(deadline):
			if a.failed == nil {
				a.failed = ErrWindowStalled
				a.cond.Broadcast()
			}
			return ErrWindowStalled
		}
		a.armLocked(deadline)
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

// armLocked has the timer fire by deadline; it is never re-armed
// later, so no waiter's deadline is pushed back by another's.
func (a *WindowAssembler) armLocked(deadline time.Time) {
	if !a.timerAt.IsZero() && !deadline.Before(a.timerAt) {
		return // it fires no later
	}
	a.timerAt = deadline
	if a.timer == nil {
		a.timer = time.AfterFunc(time.Until(deadline), a.wake)
	} else {
		a.timer.Reset(time.Until(deadline))
	}
}

// wake rouses every waiting placer to check its deadline; each one
// still waiting re-arms the timer for its own.
func (a *WindowAssembler) wake() {
	a.mu.Lock()
	a.timerAt = time.Time{}
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

// Finish validates completion: no bytes may remain held behind a gap,
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

// drain is every transfer's per-connection read loop: it places the
// frames fr reads until EOD as one of loops drain loops (0: none
// announced, nothing is held), all announcing the same count before
// their first placement. A block past maxSize fails before any wait.
// It returns the payload bytes read.
func (a *WindowAssembler) drain(fr *frameReader, loops int, maxSize uint64) (int64, error) {
	a.mu.Lock()
	if a.loops == 0 {
		a.loops, a.waiting = loops, slices.Grow(a.waitBuf[:0], loops)
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
