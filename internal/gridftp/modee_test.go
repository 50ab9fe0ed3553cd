package gridftp

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
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

func TestSendStoreRegionGeometryValidation(t *testing.T) {
	var buf bytes.Buffer
	src := bytes.NewReader([]byte("x"))
	if err := sendStoreRegion(src, &buf, 0, 1, 0, 0, 1); err == nil {
		t.Error("zero block size should fail")
	}
	if err := sendStoreRegion(src, &buf, 0, 1, 1, -1, 1); err == nil {
		t.Error("negative base should fail")
	}
	if err := sendStoreRegion(src, &buf, 0, 1, 1, 0, 0); err == nil {
		t.Error("zero step should fail")
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

func TestStripedReassemblyProperty(t *testing.T) {
	// Property: any (payload size, block size, stripe count) partition
	// reassembles to the original payload, including concurrent draining.
	f := func(seed int64, sizeRaw, blockRaw uint16, stripesRaw uint8) bool {
		size := int(sizeRaw)%20000 + 1
		block := int(blockRaw)%997 + 1
		stripes := int(stripesRaw)%7 + 1
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, size)
		rng.Read(payload)

		// Render each stripe's byte stream.
		streams := make([]*bytes.Buffer, stripes)
		for i := range streams {
			streams[i] = &bytes.Buffer{}
			if err := sendStoreRegion(bytes.NewReader(payload), streams[i], 0, int64(size), block, i*block, stripes*block); err != nil {
				return false
			}
		}
		asm, err := NewAssembler(int64(size))
		if err != nil {
			return false
		}
		var wg sync.WaitGroup
		ok := make([]bool, stripes)
		for i := range streams {
			wg.Add(1)
			go func(i int, r io.Reader) {
				defer wg.Done()
				_, err := asm.DrainConn(r)
				ok[i] = err == nil
			}(i, streams[i])
		}
		wg.Wait()
		for _, o := range ok {
			if !o {
				return false
			}
		}
		return asm.Complete() && bytes.Equal(asm.Bytes(), payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDrainConnStopsAtEOD(t *testing.T) {
	var buf bytes.Buffer
	WriteBlock(&buf, Block{Offset: 0, Data: []byte("abc")})
	WriteBlock(&buf, Block{Desc: DescEOD})
	WriteBlock(&buf, Block{Offset: 3, Data: []byte("XYZ")}) // after EOD: unread
	asm, _ := NewAssembler(6)
	n, err := asm.DrainConn(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("drained %d bytes, want 3", n)
	}
	if asm.Complete() {
		t.Error("assembler should not be complete")
	}
}
