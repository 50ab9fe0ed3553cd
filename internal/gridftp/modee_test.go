package gridftp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBlockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Block{Desc: 0, Offset: 123456789, Data: []byte("hello gridftp")}
	if err := WriteBlock(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Desc != want.Desc || got.Offset != want.Offset || !bytes.Equal(got.Data, want.Data) {
		t.Errorf("got %+v, want %+v", got, want)
	}
}

func TestControlFrames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, Block{Desc: DescEOD}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBlock(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Desc != DescEOD || got.Data != nil {
		t.Errorf("got %+v", got)
	}
}

func TestReadBlockTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteBlock(&buf, Block{Data: []byte("abcdef")})
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadBlock(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload should fail")
	}
	if _, err := ReadBlock(bytes.NewReader(trunc[:5])); err == nil {
		t.Error("truncated header should fail")
	}
}

func TestReadBlockOversized(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, modeEHeaderLen)
	hdr[1] = 0xFF // absurd count
	buf.Write(hdr)
	_, err := ReadBlock(&buf)
	if !errors.Is(err, ErrDataProtocol) {
		t.Errorf("err = %v, want ErrDataProtocol", err)
	}
}

func TestSendBlocksValidation(t *testing.T) {
	for _, bs := range []int{0, -1} {
		var buf bytes.Buffer
		src := &blockSource{at: bytes.NewReader([]byte("x")), end: 1, blockSize: bs}
		if _, err := sendBlocks(src, &buf, nil); err == nil || buf.Len() != 0 {
			t.Errorf("block size %d: err %v after %d bytes sent, want a failure before any", bs, err, buf.Len())
		}
	}
}

func TestAssemblerValidation(t *testing.T) {
	if _, err := NewAssembler(-1); err == nil {
		t.Error("negative size should fail")
	}
	a, err := NewAssembler(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Place(Block{Offset: 8, Data: []byte("xyz")}); !errors.Is(err, ErrDataProtocol) {
		t.Errorf("overflow placement: err = %v", err)
	}
}

// TestStripedReassemblyProperty: any (payload size, block size, stripe
// count) partition drained concurrently through the window, each stripe
// on its own drain loop with the loop count announced, reassembles to
// the original payload. With ascending stripes it does so at a window of
// two blocks and never copies a block: every block beyond the watermark
// is held for the sibling carrying the gap. With one stripe's blocks
// sent in reverse, no sibling carries that stripe's gaps, and the
// transfer completes by copying blocks into the held runs.
func TestStripedReassemblyProperty(t *testing.T) {
	f := func(seed int64, sizeRaw, blockRaw uint16, stripesRaw uint8, reverse bool) bool {
		size := int(sizeRaw)%20000 + 1
		block := int(blockRaw)%997 + 1
		stripes := int(stripesRaw)%7 + 1
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, size)
		rng.Read(payload)

		// Render each stripe's byte stream: blocks i, i+stripes, ...
		// ascending, then EOD.
		streams := make([]*bytes.Buffer, stripes)
		for i := range streams {
			var stripe []Block
			for off := i * block; off < size; off += stripes * block {
				stripe = append(stripe, Block{Offset: uint64(off), Data: payload[off:min(off+block, size)]})
			}
			streams[i] = bytes.NewBuffer(referenceFrames(stripe))
		}
		windows := []int{2 * block, size}
		if reverse {
			// Stripe 0 descending: it can only complete by copying every
			// other stripe's blocks into the held runs.
			streams[0].Reset()
			for off := (size - 1) / (stripes * block) * stripes * block; off >= 0; off -= stripes * block {
				WriteBlock(streams[0], Block{Offset: uint64(off), Data: payload[off:min(off+block, size)]})
			}
			WriteBlock(streams[0], Block{Desc: DescEOD})
			windows = windows[1:]
		}
		for _, window := range windows {
			var out bytes.Buffer
			asm, err := NewWindowAssembler(&out, 0, int64(size), window, 5*time.Second)
			if err != nil {
				return false
			}
			var wg sync.WaitGroup
			errs := make([]error, stripes)
			for i := range streams {
				wg.Add(1)
				go func(i int, r io.Reader) {
					defer wg.Done()
					if _, errs[i] = asm.drain(&frameReader{r: r}, stripes, unboundedEnd); errs[i] != nil {
						asm.Abort(errs[i])
					}
				}(i, bytes.NewReader(streams[i].Bytes()))
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Logf("window %d: %v", window, err)
				return false
			}
			if asm.Finish() != nil || !bytes.Equal(out.Bytes(), payload) {
				return false
			}
			if copied := asm.copied > 0; copied != (reverse && size > stripes*block) {
				t.Logf("window %d, %d stripes of %d-byte blocks, reverse %v: copied %v", window, stripes, block, reverse, copied)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestDrainConnStopsAtEOD: the drain loop returns at EOD, and what the
// sender wrote after it stays in the frame reader for the next transfer
// on a cached channel.
func TestDrainConnStopsAtEOD(t *testing.T) {
	var buf bytes.Buffer
	WriteBlock(&buf, Block{Offset: 0, Data: []byte("abc")})
	WriteBlock(&buf, Block{Desc: DescEOD})
	WriteBlock(&buf, Block{Offset: 3, Data: []byte("XYZ")}) // after EOD: unread
	var out bytes.Buffer
	asm, err := NewWindowAssembler(&out, 0, 6, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	fr := &frameReader{r: &buf}
	n, err := asm.drain(fr, 1, unboundedEnd)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || out.String() != "abc" {
		t.Errorf("drained %d bytes delivering %q, want 3 delivering \"abc\"", n, out.String())
	}
	if asm.Finish() == nil {
		t.Error("assembler should not be complete")
	}
	if b, err := fr.next(); err != nil || b.Offset != 3 || string(b.Data) != "XYZ" {
		t.Errorf("frame after EOD: %+v, %v; want XYZ at 3", b, err)
	}
}

// TestFrameReaderReadSizes pins how a frame reader reads a stream that
// arrives whole: small frames share reads once its buffer has doubled
// up to minIOBytes, and large ones take one read each through a buffer
// no larger than one frame and the next header, its payloads at
// payloadAt.
func TestFrameReaderReadSizes(t *testing.T) {
	for _, tc := range []struct {
		block, blocks int
		maxReads      int
		bufLen        int
	}{
		// 256 KiB of 1 KiB frames: the buffer doubles up to 64 KiB,
		// then four reads of it drain the rest.
		{1 << 10, 256, 12, minIOBytes},
		// A 64 KiB object (a small_files job): the header, then the
		// frame with the EOD behind it.
		{64 << 10, 1, 2, payloadAt + 64<<10 + modeEHeaderLen},
		// Four 256 KiB frames: one read each after the first header.
		{256 << 10, 4, 5, payloadAt + 256<<10 + modeEHeaderLen},
	} {
		var stream bytes.Buffer
		for i := 0; i < tc.blocks; i++ {
			WriteBlock(&stream, Block{Offset: uint64(i * tc.block), Data: make([]byte, tc.block)})
		}
		WriteBlock(&stream, Block{Desc: DescEOD})
		src := &countingReader{r: bytes.NewReader(stream.Bytes())}
		fr := frameReader{r: src}
		for i := 0; ; i++ {
			b, err := fr.next()
			if err != nil {
				t.Fatalf("block %d: frame %d: %v", tc.block, i, err)
			}
			if b.Desc&DescEOD != 0 {
				if i != tc.blocks {
					t.Fatalf("block %d: EOD after %d frames, want %d", tc.block, i, tc.blocks)
				}
				break
			}
			if tc.block >= minIOBytes && &b.Data[0] != &fr.buf[payloadAt] {
				t.Fatalf("block %d: frame %d payload not at payloadAt", tc.block, i)
			}
		}
		if src.reads > tc.maxReads || len(fr.buf) != tc.bufLen {
			t.Errorf("block %d: %d reads through a %d-byte buffer, want at most %d through %d",
				tc.block, src.reads, len(fr.buf), tc.maxReads, tc.bufLen)
		}
	}
}
