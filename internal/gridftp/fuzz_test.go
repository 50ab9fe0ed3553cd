package gridftp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"testing/iotest"
)

// frameHeader builds a bare MODE E header announcing count payload bytes
// at offset, without any payload following it.
func frameHeader(count, offset uint64) []byte {
	hdr := make([]byte, modeEHeaderLen)
	binary.BigEndian.PutUint64(hdr[1:9], count)
	binary.BigEndian.PutUint64(hdr[9:17], offset)
	return hdr
}

// truncatedFrame is the truncated-EOF-frame fault from the matrix tests:
// a header promising count bytes with only delivered of them present.
func truncatedFrame(count, delivered uint64) []byte {
	return append(frameHeader(count, 0), make([]byte, delivered)...)
}

// FuzzReadBlock hardens the MODE E frame parser against arbitrary peer
// bytes: it must never panic or allocate absurdly, and any frame it
// accepts must re-serialize to bytes it parses identically.
func FuzzReadBlock(f *testing.F) {
	seed := func(b Block) {
		var buf bytes.Buffer
		WriteBlock(&buf, b)
		f.Add(buf.Bytes())
	}
	seed(Block{Offset: 0, Data: []byte("hello")})
	seed(Block{Desc: DescEOD})
	seed(Block{Desc: DescEOF, Offset: 1 << 40})
	seed(Block{Desc: DescEODC, Offset: 2}) // EODC: conn count in offset
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0xFF}, 17))
	// Fault-matrix corpus: the truncated-EOF-frame injection delivers a
	// header promising bytes that never arrive, and the oversize-STOR
	// test sends counts past maxBlock.
	f.Add(truncatedFrame(64<<10, 1000))
	f.Add(frameHeader(maxBlock+1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBlock(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(b.Data) > maxBlock {
			t.Fatalf("accepted oversized block of %d bytes", len(b.Data))
		}
		var buf bytes.Buffer
		if err := WriteBlock(&buf, b); err != nil {
			t.Fatalf("re-serialize failed: %v", err)
		}
		again, err := ReadBlock(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.Desc != b.Desc || again.Offset != b.Offset || !bytes.Equal(again.Data, b.Data) {
			t.Fatal("round trip changed frame")
		}
	})
}

// FuzzReadBlockInto hardens the scratch-reusing frame reader the
// streaming data plane drains connections with: it must agree with
// ReadBlock on every input, never panic, and never hand back a block
// aliasing memory beyond the returned scratch.
func FuzzReadBlockInto(f *testing.F) {
	seed := func(b Block) {
		var buf bytes.Buffer
		WriteBlock(&buf, b)
		f.Add(buf.Bytes())
	}
	seed(Block{Offset: 0, Data: []byte("hello")})
	seed(Block{Desc: DescEOD})
	seed(Block{Desc: DescEOF, Offset: 1 << 40})
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 17))
	f.Add(truncatedFrame(64<<10, 1000))
	f.Add(frameHeader(maxBlock+1, 0))
	// Two frames back to back: scratch reuse across reads must not let
	// the second frame clobber a still-referenced first.
	var two bytes.Buffer
	WriteBlock(&two, Block{Offset: 0, Data: []byte("first")})
	WriteBlock(&two, Block{Offset: 5, Data: []byte("second")})
	f.Add(two.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		b1, err1 := ReadBlock(bytes.NewReader(data))
		r := bytes.NewReader(data)
		scratch := make([]byte, 0)
		b2, scratch, err2 := ReadBlockInto(r, scratch)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ReadBlock err=%v, ReadBlockInto err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if b1.Desc != b2.Desc || b1.Offset != b2.Offset || !bytes.Equal(b1.Data, b2.Data) {
			t.Fatal("ReadBlockInto disagrees with ReadBlock")
		}
		if len(b2.Data) > len(scratch) && len(b2.Data) > 0 {
			t.Fatal("block data longer than the scratch it claims to live in")
		}
		// Drain the remainder with the same scratch: reuse must keep
		// parsing consistently (panic/corruption would surface here).
		for {
			var err error
			_, scratch, err = ReadBlockInto(r, scratch)
			if err != nil {
				return
			}
		}
	})
}

// cutReader hands out its bytes in reads no longer than the next of
// its cut sizes, cycling through them.
type cutReader struct {
	r    io.Reader
	cuts []byte
	i    int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if len(c.cuts) > 0 {
		n := int(c.cuts[c.i%len(c.cuts)])%64 + 1
		c.i++
		p = p[:min(len(p), n)]
	}
	return c.r.Read(p)
}

// countingReader counts the bytes read through it and its Read calls.
type countingReader struct {
	r     io.Reader
	n     int
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	c.reads++
	return n, err
}

// readClass folds a frame read error onto the outcomes a receiver
// tells apart.
func readClass(err error) error {
	for _, class := range []error{io.EOF, io.ErrUnexpectedEOF, ErrDataProtocol} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// FuzzFrameReader holds the data connections' frame reader to repeated
// ReadBlockInto on the same bytes: the same blocks and the same error
// class, whatever sizes the stream arrives in — a byte at a time, half
// reads, the error riding the last data, fuzzed cuts — and never
// more consumed past the last frame it returned than its buffer holds:
// minIOBytes, or the largest frame so far and the next header. It then
// runs two transfers back to back on one reader, as a cached data
// channel does: after each EOD the next transfer's frames come back
// intact, none dropped and none taken early, under every read shape.
func FuzzFrameReader(f *testing.F) {
	frames := func(bs ...Block) []byte {
		var buf bytes.Buffer
		for _, b := range bs {
			WriteBlock(&buf, b)
		}
		return buf.Bytes()
	}
	f.Add(frames(Block{Data: []byte("hello")}, Block{Desc: DescEOD}), []byte{3})
	f.Add(frames(Block{Data: []byte("first")}, Block{Offset: 5, Data: []byte("second!")},
		Block{Offset: 12, Data: []byte("x")}, Block{Desc: DescEOD}), []byte{1, 17, 40, 5})
	// A partial frame after an EOD.
	f.Add(append(frames(Block{Data: []byte("abc")}, Block{Desc: DescEOD}), "next transfer"...), []byte{63})
	f.Add(frames(Block{Desc: DescEOD | DescEOF, Data: []byte("tail")}, Block{Data: []byte("z")}), []byte{})
	f.Add(frames(Block{Data: make([]byte, 300)}, Block{}, Block{Offset: 300, Data: make([]byte, 2)}), []byte{16, 0})
	f.Add([]byte{}, []byte{})
	f.Add(append(frames(Block{Data: []byte("abc")}), frameHeader(4<<10, 0)[:9]...), []byte{9})
	f.Add(append(frames(Block{Data: []byte("abc")}), truncatedFrame(64, 10)...), []byte{2})
	f.Add(append(frames(Block{Data: []byte("abc")}), frameHeader(maxBlock+1, 0)...), []byte{20})
	f.Add(frameHeader(8, 0), []byte{})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		// The reference: ReadBlockInto until it fails.
		var want []Block
		var wantErr error
		ref := bytes.NewReader(data)
		var scratch []byte
		for {
			var b Block
			b, scratch, wantErr = ReadBlockInto(ref, scratch)
			if wantErr != nil {
				break
			}
			b.Data = bytes.Clone(b.Data)
			want = append(want, b)
		}
		shapes := []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{
			{"whole", func(r io.Reader) io.Reader { return r }},
			{"one byte", iotest.OneByteReader},
			{"half", iotest.HalfReader},
			{"data+err", iotest.DataErrReader},
			{"cut", func(r io.Reader) io.Reader { return &cutReader{r: r, cuts: cuts} }},
		}
		for _, shape := range shapes {
			// Counted above the shaping reader: DataErrReader reads
			// ahead of what it hands out.
			src := &countingReader{r: shape.wrap(bytes.NewReader(data))}
			fr := frameReader{r: src}
			end := 0     // stream offset just past the last returned frame
			largest := 0 // largest frame returned, header included
			for i := 0; ; i++ {
				b, err := fr.next()
				if err != nil {
					if i != len(want) || readClass(err) != readClass(wantErr) {
						t.Fatalf("%s: frame %d: err %v, ReadBlockInto gave %d frames then %v",
							shape.name, i, err, len(want), wantErr)
					}
					break
				}
				if i >= len(want) {
					t.Fatalf("%s: frame %d past ReadBlockInto's %d", shape.name, i, len(want))
				}
				if w := want[i]; b.Desc != w.Desc || b.Offset != w.Offset || !bytes.Equal(b.Data, w.Data) {
					t.Fatalf("%s: frame %d differs from ReadBlockInto's", shape.name, i)
				}
				end += modeEHeaderLen + len(b.Data)
				largest = max(largest, modeEHeaderLen+len(b.Data))
				if src.n-end > max(minIOBytes, largest+modeEHeaderLen) {
					t.Fatalf("%s: frame %d ends at %d but %d bytes were consumed", shape.name, i, end, src.n)
				}
			}
		}

		// Back to back: the frames above up to their first EOD (one added
		// if there is none), then a transfer of data in two blocks. Each
		// transfer reads through a fresh view of the stream, as the server
		// wraps a cached channel afresh per transfer.
		var first []Block
		for _, b := range want {
			if first = append(first, b); b.Desc&DescEOD != 0 {
				break
			}
		}
		if len(first) == 0 || first[len(first)-1].Desc&DescEOD == 0 {
			first = append(first, Block{Desc: DescEOD})
		}
		second := []Block{{Offset: 7, Data: data[:len(data)/2]}, {Offset: 9, Data: data[len(data)/2:]}, {Desc: DescEOD}}
		stream := append(frames(first...), frames(second...)...)
		for _, shape := range shapes {
			src := shape.wrap(bytes.NewReader(stream))
			var fr frameReader
			for k, transfer := range [][]Block{first, second} {
				fr.r = struct{ io.Reader }{src}
				for i, w := range transfer {
					b, err := fr.next()
					if err != nil || b.Desc != w.Desc || b.Offset != w.Offset || !bytes.Equal(b.Data, w.Data) {
						t.Fatalf("%s: transfer %d frame %d differs from what was sent (err %v)", shape.name, k, i, err)
					}
				}
			}
			if _, err := fr.next(); err != io.EOF {
				t.Fatalf("%s: after the second EOD: %v, want io.EOF", shape.name, err)
			}
		}
	})
}

// windowModel is the reference FuzzWindowAssembler holds the assembler
// to: a flat array over absolute offsets with one present flag per byte,
// placed and delivered a byte at a time — no ring, no word-wide bitmap
// steps, no in-order shortcut.
type windowModel struct {
	base, flushed, window uint64
	buf                   []byte
	present               []bool
	sink                  []byte
	wire, dup             int64
}

func (m *windowModel) place(off uint64, data []byte) error {
	n := uint64(len(data))
	switch {
	case n == 0:
		return nil
	case off < m.base:
		return ErrDataProtocol
	case off+n <= m.flushed:
		m.wire += int64(n)
		m.dup += int64(n)
		return nil
	case off+n > m.flushed+m.window && n > m.window:
		return ErrDataProtocol
	case off+n > m.flushed+m.window:
		return ErrWindowFull
	}
	m.wire += int64(n)
	for i, c := range data {
		o := off + uint64(i)
		if o < m.flushed {
			m.dup++
			continue
		}
		if m.present[o] {
			m.dup++
		}
		m.buf[o], m.present[o] = c, true
	}
	for m.present[m.flushed] {
		m.sink = append(m.sink, m.buf[m.flushed])
		m.present[m.flushed] = false
		m.flushed++
	}
	return nil
}

// errClass folds a Place result onto the three outcomes the model
// distinguishes.
func errClass(err error) error {
	for _, class := range []error{ErrWindowFull, ErrDataProtocol} {
		if errors.Is(err, class) {
			return class
		}
	}
	return err
}

// FuzzWindowAssembler throws adversarial block sequences at the sliding
// window: overlaps, duplicates, out-of-window offsets, and truncated
// tails must be either delivered contiguously or rejected — never
// panic, never deliver a byte twice, never deliver out of order. After
// every Place the assembler must agree with windowModel on the sink's
// content, every counter and the error class. Every input runs at three
// windows: one presence-map word (64), a ring that ends mid-word (200),
// and one whose blocks span many words (1000).
func FuzzWindowAssembler(f *testing.F) {
	// Encoded op stream: each 5 bytes are [offLo offHi lenLo lenHi fill].
	f.Add(uint16(0), []byte{0, 0, 16, 0, 1, 16, 0, 16, 0, 2})
	f.Add(uint16(8), []byte{8, 0, 8, 0, 3})                  // exactly at base
	f.Add(uint16(0), []byte{0, 1, 4, 0, 9})                  // beyond the window
	f.Add(uint16(4), []byte{0, 0, 8, 0, 7})                  // below base
	f.Add(uint16(0), []byte{0, 0, 32, 0, 1, 0, 0, 32, 0, 2}) // pure duplicate
	f.Add(uint16(0), []byte{4, 0, 8, 0, 5, 0, 0, 16, 0, 6})  // overlap across watermark
	// The shapes the in-order shortcut and the lazily made ring divide
	// on: in order only; one parked, then in order; overlap across the
	// watermark with nothing parked; parked runs that wrap the ring.
	f.Add(uint16(0), []byte{0, 0, 16, 0, 1, 16, 0, 16, 0, 2, 32, 0, 16, 0, 3})
	f.Add(uint16(0), []byte{16, 0, 16, 0, 2, 0, 0, 16, 0, 1, 32, 0, 16, 0, 3})
	f.Add(uint16(0), []byte{0, 0, 16, 0, 1, 8, 0, 16, 0, 2})
	f.Add(uint16(0), []byte{0, 0, 48, 0, 1, 56, 0, 16, 0, 3, 48, 0, 8, 0, 2,
		72, 0, 40, 0, 4, 120, 0, 16, 0, 6, 112, 0, 8, 0, 5})
	// The shapes the word-wide presence walk divides on: a parked block
	// straddling a word boundary (60..70), and a parked run that wraps
	// the 200-byte ring (180..240) released by the block before it.
	f.Add(uint16(0), []byte{60, 0, 10, 0, 2, 0, 0, 60, 0, 1})
	f.Add(uint16(0), []byte{0, 0, 150, 0, 1, 180, 0, 60, 0, 3, 150, 0, 30, 0, 2})
	// A block at the watermark goes straight to the sink even while
	// others are parked, clearing the parked duplicates it covers:
	// covering two parked runs whole, covering one in part, and
	// covering parked runs that wrap the 200- and 1000-byte rings.
	f.Add(uint16(0), []byte{16, 0, 16, 0, 2, 40, 0, 8, 0, 3, 0, 0, 48, 0, 1})
	f.Add(uint16(0), []byte{8, 0, 16, 0, 2, 32, 0, 8, 0, 4, 0, 0, 12, 0, 1, 12, 0, 20, 0, 5})
	f.Add(uint16(0), []byte{0, 0, 150, 0, 1, 190, 0, 40, 0, 3, 150, 0, 90, 0, 2})
	f.Add(uint16(0), []byte{0, 0, 0xF4, 1, 1, 0xF4, 1, 0x90, 1, 1, 0xE8, 3, 200, 0, 3, 0x84, 3, 0x90, 1, 2})
	f.Fuzz(func(t *testing.T, base uint16, ops []byte) {
		for _, window := range []int{64, 200, 1000} {
			checkWindowOps(t, base, ops, window)
		}
	})
}

// checkWindowOps replays one FuzzWindowAssembler input against an
// assembler with the given window and windowModel.
func checkWindowOps(t *testing.T, base uint16, ops []byte, window int) {
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, uint64(base), -1, window, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets are 16-bit and lengths 9-bit, so 1<<17 covers every
	// byte a block can name.
	model := &windowModel{base: uint64(base), flushed: uint64(base), window: uint64(window),
		buf: make([]byte, 1<<17), present: make([]bool, 1<<17)}
	for len(ops) >= 5 {
		// Offsets roam below base, around the window, and far past it;
		// lengths reach a few windows so the block-larger-than-window
		// rejection is exercised too.
		off := uint64(ops[0]) | uint64(ops[1])<<8
		n := int(ops[2]) | int(ops[3]&1)<<8
		fill := ops[4]
		ops = ops[5:]
		data := bytes.Repeat([]byte{fill}, n)
		// Any outcome is fine — ErrWindowFull, ErrDataProtocol for
		// below-base or oversized blocks — as long as it is the model's
		// outcome, the invariants below survive and nothing panics.
		got, want := errClass(asm.Place(Block{Offset: off, Data: data})), model.place(off, data)
		if got != want {
			t.Fatalf("window %d: Place [%d,+%d): err %v, model %v", window, off, n, got, want)
		}
		if !bytes.Equal(out.Bytes(), model.sink) {
			t.Fatalf("window %d: Place [%d,+%d): sink holds %x, model %x", window, off, n, out.Bytes(), model.sink)
		}
		if asm.Flushed() != model.flushed || asm.Delivered() != int64(len(model.sink)) ||
			asm.WireBytes() != model.wire || asm.DuplicateBytes() != model.dup {
			t.Fatalf("window %d: Place [%d,+%d): flushed=%d delivered=%d wire=%d dup=%d, model %d %d %d %d",
				window, off, n, asm.Flushed(), asm.Delivered(), asm.WireBytes(), asm.DuplicateBytes(),
				model.flushed, len(model.sink), model.wire, model.dup)
		}
	}
	// Invariants that must hold whatever happened above.
	if asm.Delivered() != int64(out.Len()) {
		t.Fatalf("window %d: delivered=%d but sink holds %d", window, asm.Delivered(), out.Len())
	}
	if asm.WireBytes() < asm.Delivered() {
		t.Fatalf("window %d: wire=%d < delivered=%d", window, asm.WireBytes(), asm.Delivered())
	}
	// Accepted-but-parked bytes are on the wire without being delivered
	// or duplicate; they live in the window, so the gap is bounded by it.
	// This is the bounded-memory guarantee itself.
	if parked := asm.WireBytes() - asm.Delivered() - asm.DuplicateBytes(); parked < 0 || parked > int64(window) {
		t.Fatalf("window %d: wire=%d delivered=%d dup=%d: parked %d outside [0,%d]",
			window, asm.WireBytes(), asm.Delivered(), asm.DuplicateBytes(), parked, window)
	}
	if asm.Flushed() < uint64(base) {
		t.Fatalf("window %d: watermark regressed below base", window)
	}
}

// FuzzParseHostPort hardens the FTP h1,h2,h3,h4,p1,p2 parser used by PORT
// and the PASV reply reader, and checks every accepted tuple survives
// the round trip through hostPortString, the encoder PASV and SPAS use.
func FuzzParseHostPort(f *testing.F) {
	f.Add("127,0,0,1,4,210")
	f.Add("")
	f.Add("1,2,3")
	f.Add("256,0,0,1,0,0")
	f.Add("a,b,c,d,e,f")
	f.Add("1,2,3,4,5,6,7")
	f.Add(" 127 , 0 , 0 , 1 , 10 , 20 ")
	f.Fuzz(func(t *testing.T, s string) {
		addr, err := parseHostPort(s)
		if err != nil {
			return
		}
		if addr == "" {
			t.Fatal("accepted input yielded empty address")
		}
		tcp, err := net.ResolveTCPAddr("tcp", addr)
		if err != nil {
			t.Fatalf("accepted %q yielded unresolvable %q: %v", s, addr, err)
		}
		back, err := parseHostPort(hostPortString(tcp))
		if err != nil || back != addr {
			t.Fatalf("%q -> %q -> %q -> %q, %v", s, addr, hostPortString(tcp), back, err)
		}
	})
}

// FuzzAssembler hardens the reassembly path against adversarial block
// sequences.
func FuzzAssembler(f *testing.F) {
	f.Add(uint64(0), []byte("abcdef"), uint64(0))
	f.Add(uint64(100), []byte("x"), uint64(99))
	f.Add(uint64(1<<40), []byte{}, uint64(0))
	f.Fuzz(func(t *testing.T, offset uint64, data []byte, base uint64) {
		size := int64(len(data)) + 64
		asm, err := NewRegionAssembler(base, size)
		if err != nil {
			t.Fatal(err)
		}
		// Either the block is placed or rejected; never a panic, and a
		// placed block must be inside the region.
		err = asm.Place(Block{Offset: offset, Data: data})
		if err == nil && len(data) > 0 {
			if offset < base || offset+uint64(len(data)) > base+uint64(size) {
				t.Fatal("accepted block outside region")
			}
		}
	})
}

// FuzzDrainConn exercises the full per-connection read loop on arbitrary
// streams.
func FuzzDrainConn(f *testing.F) {
	var good bytes.Buffer
	WriteBlock(&good, Block{Offset: 0, Data: []byte("abc")})
	WriteBlock(&good, Block{Desc: DescEOD})
	f.Add(good.Bytes())
	f.Add([]byte("garbage stream"))
	// Fault-matrix corpus: a healthy block followed by a peer reset
	// mid-frame (truncated header, then truncated payload), and a block
	// whose offset lands far outside any sane region.
	var cut bytes.Buffer
	WriteBlock(&cut, Block{Offset: 0, Data: []byte("abc")})
	cut.Write(truncatedFrame(4<<10, 1000))
	f.Add(cut.Bytes())
	var short bytes.Buffer
	WriteBlock(&short, Block{Offset: 0, Data: []byte("abc")})
	short.Write(frameHeader(4<<10, 0)[:9]) // reset mid-header
	f.Add(short.Bytes())
	var huge bytes.Buffer
	WriteBlock(&huge, Block{Offset: 1 << 40, Data: []byte("boom")})
	f.Add(huge.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		asm, err := NewAssembler(1 << 16)
		if err != nil {
			t.Fatal(err)
		}
		n, err := asm.DrainConn(bytes.NewReader(data))
		if err == nil && n < 0 {
			t.Fatal("negative byte count")
		}
		_ = err // io errors expected on truncated input
	})
}
