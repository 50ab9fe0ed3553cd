package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestWindowAssemblerInOrder(t *testing.T) {
	var out bytes.Buffer
	want := randomPayload(10 << 10)
	asm, err := NewWindowAssembler(&out, 0, int64(len(want)), 1<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(want); off += 512 {
		end := off + 512
		if end > len(want) {
			end = len(want)
		}
		if err := asm.Place(Block{Offset: uint64(off), Data: want[off:end]}); err != nil {
			t.Fatalf("place at %d: %v", off, err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("delivered bytes differ from input")
	}
	if asm.Delivered() != int64(len(want)) || asm.WireBytes() != int64(len(want)) {
		t.Fatalf("delivered=%d wire=%d, want %d for both", asm.Delivered(), asm.WireBytes(), len(want))
	}
	if asm.DuplicateBytes() != 0 {
		t.Fatalf("duplicates=%d, want 0", asm.DuplicateBytes())
	}
}

// TestWindowAssemblerOutOfOrder shuffles block arrival within the
// window: delivery must still be contiguous and byte-identical.
func TestWindowAssemblerOutOfOrder(t *testing.T) {
	var out bytes.Buffer
	const blockLen = 256
	want := randomPayload(8 << 10)
	// Window of 4 blocks; shuffle within groups of 4 so no block lands
	// beyond the window.
	asm, err := NewWindowAssembler(&out, 0, int64(len(want)), 4*blockLen, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	nBlocks := len(want) / blockLen
	for g := 0; g < nBlocks; g += 4 {
		group := []int{g, g + 1, g + 2, g + 3}
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		for _, b := range group {
			off := b * blockLen
			if err := asm.Place(Block{Offset: uint64(off), Data: want[off : off+blockLen]}); err != nil {
				t.Fatalf("place block %d: %v", b, err)
			}
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("delivered bytes differ from input")
	}
}

func TestWindowAssemblerWindowFull(t *testing.T) {
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, 4096, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A block starting beyond flushed+window cannot be buffered.
	if err := asm.Place(Block{Offset: 1024, Data: []byte("x")}); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("got %v, want ErrWindowFull", err)
	}
	// Fill the first KiB; the window slides and the block now fits.
	if err := asm.Place(Block{Offset: 0, Data: make([]byte, 1024)}); err != nil {
		t.Fatal(err)
	}
	if err := asm.Place(Block{Offset: 1024, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	// A block bigger than the whole window can never fit: protocol error,
	// not ErrWindowFull.
	err = asm.Place(Block{Offset: 1025, Data: make([]byte, 2048)})
	if !errors.Is(err, ErrDataProtocol) {
		t.Fatalf("got %v, want ErrDataProtocol for block larger than window", err)
	}
}

// TestWindowAssemblerDuplicates: re-sent regions — behind the
// watermark or already present in the window — are dropped, counted,
// and never delivered twice.
func TestWindowAssemblerDuplicates(t *testing.T) {
	var out bytes.Buffer
	want := randomPayload(2048)
	asm, err := NewWindowAssembler(&out, 0, int64(len(want)), 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	place := func(off, n int) {
		t.Helper()
		if err := asm.Place(Block{Offset: uint64(off), Data: want[off : off+n]}); err != nil {
			t.Fatalf("place [%d,+%d): %v", off, n, err)
		}
	}
	place(0, 512)
	place(0, 512)   // fully behind the watermark
	place(512, 512) // flushes through 1024
	place(768, 512) // overlaps delivered [768,1024) and fresh [1024,1280)
	place(1280, 768)
	place(1024, 256) // in-window duplicate
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("delivered bytes differ from input")
	}
	if asm.Delivered() != int64(len(want)) {
		t.Fatalf("delivered=%d, want %d", asm.Delivered(), len(want))
	}
	wantDup := int64(512 + 256 + 256)
	if asm.DuplicateBytes() != wantDup {
		t.Fatalf("duplicates=%d, want %d", asm.DuplicateBytes(), wantDup)
	}
	if asm.WireBytes() != int64(len(want))+wantDup {
		t.Fatalf("wire=%d, want %d", asm.WireBytes(), int64(len(want))+wantDup)
	}
}

func TestWindowAssemblerFinishDetectsGap(t *testing.T) {
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, 1024, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Place(Block{Offset: 512, Data: make([]byte, 512)}); err != nil {
		t.Fatal(err)
	}
	if err := asm.Finish(); err == nil {
		t.Fatal("Finish accepted a transfer with a parked gap")
	}
	// Bounded region not fully delivered is also incomplete.
	var out2 bytes.Buffer
	asm2, _ := NewWindowAssembler(&out2, 0, 1024, 1024, 0)
	asm2.Place(Block{Offset: 0, Data: make([]byte, 512)})
	if err := asm2.Finish(); err == nil {
		t.Fatal("Finish accepted an incomplete bounded region")
	}
}

func TestWindowAssemblerAbortWakesParked(t *testing.T) {
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, 4096, 1024, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	done := make(chan error, 1)
	go func() {
		// Parks: offset 2048 is beyond the empty window.
		done <- asm.PlaceBlocking(Block{Offset: 2048, Data: []byte("y")})
	}()
	time.Sleep(20 * time.Millisecond)
	asm.Abort(boom)
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("parked placer woke with %v, want boom", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Abort did not wake the parked placer")
	}
}

func TestWindowAssemblerParkTimeout(t *testing.T) {
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, 4096, 1024, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	err = asm.PlaceBlocking(Block{Offset: 2048, Data: []byte("y")})
	if !errors.Is(err, ErrWindowStalled) {
		t.Fatalf("got %v, want ErrWindowStalled", err)
	}
}

// TestWindowAssemblerResumeBase: an assembler rooted at a restart
// offset drops the duplicate prefix a resumed sender re-transmits and
// delivers only fresh bytes.
func TestWindowAssemblerResumeBase(t *testing.T) {
	full := randomPayload(4096)
	const base = 1500
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, base, int64(len(full)-base), 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := asm.Place(Block{Offset: base, Data: full[base:2048]}); err != nil {
		t.Fatal(err)
	}
	// The sender re-sends [1536, 2560): the first 512 bytes are behind
	// the watermark and must be trimmed, the rest delivered once.
	if err := asm.Place(Block{Offset: 1536, Data: full[1536:2560]}); err != nil {
		t.Fatal(err)
	}
	for off := 2560; off < len(full); off += 512 {
		if err := asm.Place(Block{Offset: uint64(off), Data: full[off : off+512]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if asm.DuplicateBytes() != 512 {
		t.Fatalf("duplicates=%d, want 512", asm.DuplicateBytes())
	}
	if !bytes.Equal(out.Bytes(), full[base:]) {
		t.Fatal("resumed delivery differs from the object suffix")
	}
	// A block below base is rejected outright.
	if err := asm.Place(Block{Offset: 0, Data: full[:256]}); !errors.Is(err, ErrDataProtocol) {
		t.Fatalf("got %v, want ErrDataProtocol below base", err)
	}
}

// TestWindowAssemblerConcurrentStripes is the -race coverage of
// parallel stripe placement into one window: n goroutines play the n
// data connections of a striped sender, each placing its interleaved
// blocks with backpressure, and the sink must receive the exact
// object.
func TestWindowAssemblerConcurrentStripes(t *testing.T) {
	const (
		stripes  = 4
		blockLen = 1 << 10
		size     = 1 << 20
	)
	want := randomPayload(size)
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, size, 8*blockLen, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, stripes)
	for s := 0; s < stripes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for off := s * blockLen; off < size; off += stripes * blockLen {
				end := off + blockLen
				if end > size {
					end = size
				}
				if err := asm.PlaceBlocking(Block{Offset: uint64(off), Data: want[off:end]}); err != nil {
					errs[s] = fmt.Errorf("stripe %d at %d: %w", s, off, err)
					asm.Abort(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatal("concurrent striped delivery differs from input")
	}
	if asm.Delivered() != size || asm.WireBytes() != size || asm.DuplicateBytes() != 0 {
		t.Fatalf("delivered=%d wire=%d dup=%d, want %d/%d/0",
			asm.Delivered(), asm.WireBytes(), asm.DuplicateBytes(), size, size)
	}
}

// failWriter fails after accepting some bytes, modeling a full disk.
type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n -= len(p)
	if w.n < 0 {
		return 0, errors.New("sink full")
	}
	return len(p), nil
}

func TestWindowAssemblerSinkErrorFailsAll(t *testing.T) {
	asm, err := NewWindowAssembler(&failWriter{n: 1024}, 0, 1<<20, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1024)
	if err := asm.Place(Block{Offset: 0, Data: data}); err != nil {
		t.Fatal(err)
	}
	if err := asm.Place(Block{Offset: 1024, Data: data}); err == nil {
		t.Fatal("sink failure not surfaced by the flushing Place")
	}
	if err := asm.Place(Block{Offset: 2048, Data: data}); err == nil {
		t.Fatal("failed assembler accepted another block")
	}
	if err := asm.Finish(); err == nil {
		t.Fatal("Finish ignored the sink failure")
	}
}

// spanSink records the (offset, len) of every write the assembler makes.
type spanSink struct {
	off    int
	writes [][2]int
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.writes = append(s.writes, [2]int{s.off, len(p)})
	s.off += len(p)
	return len(p), nil
}

// TestWindowSinkWritesUnchanged pins the write sequence the sink sees
// for a fixed block-aligned two-stripe interleaving (even blocks on one
// connection, odd on the other, the odd stripe running ahead and falling
// behind) to the one recorded before in-order blocks went straight to
// the sink: a store that grows by what it is handed (MemStore) then
// grows exactly as it did.
func TestWindowSinkWritesUnchanged(t *testing.T) {
	const blockLen, window = 16, 4 * 16
	arrival := []int{0, 2, 1, 4, 3, 5, 7, 8, 6, 9, 10, 11}
	// A watermark block now goes to the sink unbuffered, so each block is one write.
	want := [][2]int{
		{0, 16}, {16, 16}, {32, 16}, // block 0 alone; 1 at the watermark releases the parked 2
		{48, 16}, {64, 16}, // 3 releases 4
		{80, 16},                       // 5 in order, nothing parked
		{96, 16}, {112, 16}, {128, 16}, // 6 releases 7 and 8, split where the ring wraps
		{144, 16}, {160, 16}, {176, 16},
	}
	sink := &spanSink{}
	asm, err := NewWindowAssembler(sink, 0, int64(len(arrival)*blockLen), window, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := randomPayload(len(arrival) * blockLen)
	for _, b := range arrival {
		if err := asm.Place(Block{Offset: uint64(b * blockLen), Data: payload[b*blockLen : (b+1)*blockLen]}); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	if err := asm.Finish(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sink.writes) != fmt.Sprint(want) {
		t.Fatalf("sink saw writes (offset, len)\n got %v\nwant %v", sink.writes, want)
	}
}

// TestWindowInOrderNeverBuffers: a transfer whose blocks all arrive in
// order — one stream drained off a connection, or a one-block object —
// never makes the ring. Seen from outside, the whole transfer allocates
// far less than the 8 MiB window it is bounded by.
func TestWindowInOrderNeverBuffers(t *testing.T) {
	const window, blockLen = 8 << 20, 64 << 10
	payload := randomPayload(1 << 20)
	var stream bytes.Buffer
	for off := 0; off < len(payload); off += blockLen {
		WriteBlock(&stream, Block{Offset: uint64(off), Data: payload[off : off+blockLen]})
	}
	WriteBlock(&stream, Block{Desc: DescEOD})
	for _, tc := range []struct {
		name string
		want []byte
		run  func(*WindowAssembler) error
	}{
		{"one stream", payload, func(a *WindowAssembler) error { _, err := a.DrainConn(&stream); return err }},
		{"one block", payload[:blockLen], func(a *WindowAssembler) error { return a.PlaceBlocking(Block{Data: payload[:blockLen]}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := bytes.NewBuffer(make([]byte, 0, len(tc.want)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			asm, err := NewWindowAssembler(out, 0, int64(len(tc.want)), window, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(asm); err != nil {
				t.Fatal(err)
			}
			if err := asm.Finish(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
				t.Errorf("in-order transfer allocated %d bytes under a %d-byte window: the ring was made", delta, window)
			}
			if !bytes.Equal(out.Bytes(), tc.want) {
				t.Fatal("delivered bytes differ from input")
			}
		})
	}
}

// TestPresenceRangesMatchPerBit holds the presence map's three range
// walks (set, clear, run) to a bit-at-a-time reference for every
// (lo, hi) over maps of one to three words, from an empty, a full, a
// random and a mostly-full starting map.
func TestPresenceRangesMatchPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bit := func(p presence, i uint64) bool { return p[i/64]>>(i%64)&1 == 1 }
	for words := 1; words <= 3; words++ {
		n := uint64(words) * 64
		empty, full, random, mostly := make(presence, words), make(presence, words), make(presence, words), make(presence, words)
		for i := uint64(0); i < n; i++ {
			full[i/64] |= 1 << (i % 64)
			if rng.Intn(2) == 0 {
				random[i/64] |= 1 << (i % 64)
			}
			if rng.Intn(40) != 0 {
				mostly[i/64] |= 1 << (i % 64)
			}
		}
		for _, start := range []presence{empty, full, random, mostly} {
			for lo := uint64(0); lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					set, cleared := append(presence(nil), start...), append(presence(nil), start...)
					fresh := set.set(lo, hi)
					cleared.clear(lo, hi)
					wantFresh, wantRun := 0, uint64(0)
					for i := lo; i < hi && bit(start, i); i++ {
						wantRun++
					}
					for i := uint64(0); i < n; i++ {
						in := lo <= i && i < hi
						if in && !bit(start, i) {
							wantFresh++
						}
						if bit(set, i) != (bit(start, i) || in) || bit(cleared, i) != (bit(start, i) && !in) {
							t.Fatalf("%d words, [%d,%d): bit %d after set=%v clear=%v, start %v",
								words, lo, hi, i, bit(set, i), bit(cleared, i), bit(start, i))
						}
					}
					if fresh != wantFresh {
						t.Fatalf("%d words, set [%d,%d) reported %d fresh bits, want %d", words, lo, hi, fresh, wantFresh)
					}
					if got := start.run(lo, hi); got != wantRun {
						t.Fatalf("%d words, run [%d,%d) = %d, want %d", words, lo, hi, got, wantRun)
					}
				}
			}
		}
	}
}

// TestWindowParkDeadlineRearms: the park timeout bounds a wait in which
// the window does not slide, not the whole wait. A block parked behind a
// window that slides a little every step, each step well inside the
// timeout, waits longer than the timeout in all and still lands.
func TestWindowParkDeadlineRearms(t *testing.T) {
	const parkMax, step = 200 * time.Millisecond, 50 * time.Millisecond
	payload := randomPayload(104)
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, int64(len(payload)), 64, parkMax)
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	asm.OnPark = func(uint64) { close(parked) }
	done := make(chan error, 1)
	go func() { done <- asm.PlaceBlocking(Block{Offset: 64, Data: payload[64:]}) }()
	<-parked
	// Five 8-byte steps slide the window far enough for the parked
	// 40-byte block, 250 ms after it parked.
	for off := 0; off < 40; off += 8 {
		time.Sleep(step)
		if err := asm.Place(Block{Offset: uint64(off), Data: payload[off : off+8]}); err != nil {
			t.Fatalf("place at %d, %v after the park: %v", off, time.Duration(off/8+1)*step, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("parked block: %v", err)
	}
	if err := asm.Place(Block{Offset: 40, Data: payload[40:64]}); err != nil {
		t.Fatal(err)
	}
	if err := asm.Finish(); err != nil || !bytes.Equal(out.Bytes(), payload) {
		t.Fatalf("finish: %v; delivered bytes equal the input: %v", err, bytes.Equal(out.Bytes(), payload))
	}
}

// holdRig drains two piped connections into one window as the two
// announced drain loops of a transfer, aborting the window on a loop's
// error as the transfer engines do.
type holdRig struct {
	asm  *WindowAssembler
	out  bytes.Buffer
	w    [2]*io.PipeWriter
	errs [2]chan error
	wg   sync.WaitGroup
}

const holdBlock = 16

func newHoldRig(t *testing.T, payload []byte, parkMax time.Duration) *holdRig {
	r := &holdRig{}
	var err error
	if r.asm, err = NewWindowAssembler(&r.out, 0, int64(len(payload)), len(payload), parkMax); err != nil {
		t.Fatal(err)
	}
	for i := range r.w {
		pr, pw := io.Pipe()
		r.w[i], r.errs[i] = pw, make(chan error, 1)
		r.wg.Add(1)
		go func(i int) {
			defer r.wg.Done()
			_, err := r.asm.drain(&frameReader{r: pr}, 2, unboundedEnd)
			if err != nil {
				r.asm.Abort(err)
			}
			r.errs[i] <- err
		}(i)
	}
	t.Cleanup(func() {
		for _, w := range r.w {
			w.Close()
		}
		r.wg.Wait()
	})
	return r
}

// send writes the frames of the given blocks (-1: EOD) to connection i
// in the background, in one write.
func (r *holdRig) send(i int, payload []byte, blocks ...int) {
	var frames bytes.Buffer
	for _, k := range blocks {
		if k < 0 {
			WriteBlock(&frames, Block{Desc: DescEOD})
			continue
		}
		WriteBlock(&frames, Block{Offset: uint64(k * holdBlock), Data: payload[k*holdBlock : (k+1)*holdBlock]})
	}
	go r.w[i].Write(frames.Bytes())
}

// held waits until a loop waits with the block at off.
func (r *holdRig) held(t *testing.T, off uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		r.asm.mu.Lock()
		ok := slices.Contains(r.asm.waiting, off)
		r.asm.mu.Unlock()
		if ok {
			return
		}
	}
	t.Fatalf("no loop waits with the block at %d", off)
}

// TestHoldLiveness: a block held for a sibling loop's gap never waits
// forever. A silent sibling ends the hold in ErrWindowStalled within
// about two park timeouts; a sibling whose connection fails wakes it with
// that error; and a sibling that finishes while the gap is later on the
// holder's own connection sends the held block to the ring, and the
// transfer completes. The last two wake the holder at once, not at its
// park timeout.
func TestHoldLiveness(t *testing.T) {
	payload := randomPayload(4 * holdBlock)
	boom := errors.New("boom")
	for _, tc := range []struct {
		name    string
		parkMax time.Duration
		sibling func(r *holdRig) // runs once connection 0 holds block 1
		want    error
	}{
		{"silent sibling", 200 * time.Millisecond, func(*holdRig) {}, ErrWindowStalled},
		{"sibling fails", 10 * time.Second, func(r *holdRig) { r.w[1].CloseWithError(boom) }, boom},
		{"sibling ends, gap on holder", 10 * time.Second, func(r *holdRig) { r.send(1, payload, 2, 3, -1) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newHoldRig(t, payload, tc.parkMax)
			start := time.Now()
			r.send(0, payload, 1, 0, -1) // descending: block 0 comes after 1
			r.held(t, holdBlock)
			tc.sibling(r)
			if err := <-r.errs[0]; !errors.Is(err, tc.want) {
				t.Fatalf("holder ended with %v, want %v", err, tc.want)
			}
			d, bound := time.Since(start), tc.parkMax/2
			if tc.want == ErrWindowStalled {
				bound = 2 * tc.parkMax
			}
			if d > bound {
				t.Fatalf("holder ended after %v, park timeout %v", d, tc.parkMax)
			}
			if tc.want != nil {
				return
			}
			if err := <-r.errs[1]; err != nil {
				t.Fatal(err)
			}
			if err := r.asm.Finish(); err != nil || !bytes.Equal(r.out.Bytes(), payload) || r.asm.win == nil {
				t.Fatalf("finish: %v; delivered bytes equal the input: %v; through the ring: %v",
					err, bytes.Equal(r.out.Bytes(), payload), r.asm.win != nil)
			}
		})
	}
}
