// Package gridftp implements a GridFTP server and client from scratch:
// the FTP control channel with the GridFTP extensions the paper's
// transfers exercised — parallel TCP streams (OPTS RETR Parallelism),
// striped data movement (SPAS/ERET-style block interleaving), MODE E
// extended-block data framing with out-of-order offsets, SBUF buffer
// control — plus per-transfer usage-statistics logging in the Globus
// format (internal/usagestats).
//
// The implementation runs over real TCP sockets; tests and examples use
// the loopback interface. It is the live counterpart of the simulated
// transfer pipeline in internal/workload: both emit identical log records,
// so every analysis in this repository runs unchanged on either source.
package gridftp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// MODE E (extended block mode) frames each data-channel write as
// [descriptor:1][count:8][offset:8] followed by count payload bytes, all
// big endian. Blocks may arrive out of order and interleaved across
// parallel connections; offsets place them in the file.
const modeEHeaderLen = 17

// Descriptor bits (RFC 959 MODE B extended by GridFTP / GFD.020).
const (
	// DescEOF marks the block count that ends the whole transfer.
	DescEOF byte = 64
	// DescEOD marks the final block on one data connection.
	DescEOD byte = 8
	// DescEODC carries the expected number of data connections in the
	// offset field, letting the receiver know how many EODs to await.
	DescEODC byte = 4
)

// ErrDataProtocol reports malformed MODE E framing.
var ErrDataProtocol = errors.New("gridftp: data channel protocol error")

// Block is one MODE E frame.
type Block struct {
	Desc   byte
	Offset uint64
	Data   []byte // nil for pure control frames (EOD, EODC)
}

// putHeader writes the MODE E header of a frame carrying count payload
// bytes at offset into hdr[:modeEHeaderLen].
func putHeader(hdr []byte, desc byte, count int, offset uint64) {
	hdr[0] = desc
	binary.BigEndian.PutUint64(hdr[1:9], uint64(count))
	binary.BigEndian.PutUint64(hdr[9:17], offset)
}

// WriteBlock writes one MODE E frame to w.
func WriteBlock(w io.Writer, b Block) error {
	var hdr [modeEHeaderLen]byte
	putHeader(hdr[:], b.Desc, len(b.Data), b.Offset)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(b.Data) > 0 {
		if _, err := w.Write(b.Data); err != nil {
			return err
		}
	}
	return nil
}

// maxBlock bounds a single MODE E frame payload; GridFTP deployments use
// block sizes of 64 KiB–4 MiB, so anything larger indicates corruption.
const maxBlock = 64 << 20

// parseHeader decodes a MODE E header into its block (Data unset) and
// payload length, rejecting lengths past maxBlock.
func parseHeader(hdr []byte) (Block, int, error) {
	count := binary.BigEndian.Uint64(hdr[1:9])
	if count > maxBlock {
		return Block{}, 0, fmt.Errorf("%w: block of %d bytes", ErrDataProtocol, count)
	}
	return Block{Desc: hdr[0], Offset: binary.BigEndian.Uint64(hdr[9:17])}, int(count), nil
}

// ReadBlock reads one MODE E frame from r. The returned Data is freshly
// allocated and owned by the caller.
func ReadBlock(r io.Reader) (Block, error) {
	b, _, err := ReadBlockInto(r, nil)
	return b, err
}

// ReadBlockInto reads one MODE E frame using scratch as the payload
// buffer, growing it as needed; the returned Block's Data aliases the
// returned scratch and is valid only until the next call. It reads
// exactly one frame and nothing past it; the transfer engines read
// their data connections through a frameReader instead.
func ReadBlockInto(r io.Reader, scratch []byte) (Block, []byte, error) {
	var hdr [modeEHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Block{}, scratch, err
	}
	b, count, err := parseHeader(hdr[:])
	if err != nil {
		return Block{}, scratch, err
	}
	if count > 0 {
		if cap(scratch) < count {
			scratch = make([]byte, count)
		}
		b.Data = scratch[:count]
		if _, err := io.ReadFull(r, b.Data); err != nil {
			return Block{}, scratch, err
		}
	}
	return b, scratch, nil
}

// payloadAt is where a frame's payload starts in a frame buffer, its
// header just before it at hdrAt, so senders send a frame in one Write.
// It is 64-byte aligned: payloads are copied whole (out of a store, into
// the window or a store), markedly slower at an unaligned address.
// minIOBytes is what a data connection moves per Write or Read when
// blocks are smaller, so small blocks do not multiply the syscalls.
const (
	payloadAt  = 64
	hdrAt      = payloadAt - modeEHeaderLen
	minIOBytes = 64 << 10
)

// framesPerWrite is how many blockSize frames a sender packs into one
// Write: enough for minIOBytes, and one for blocks that large.
func framesPerWrite(blockSize int) int { return max(1, minIOBytes/blockSize) }

// frameReader reads a data connection's MODE E frames through one
// buffer, of the largest frame plus a header or of minIOBytes, that is
// both read-ahead and payload: each payload is returned in place, valid
// until the next call; its blocks and errors are those of ReadBlockInto.
type frameReader struct {
	r     io.Reader
	buf   []byte // buf[at:n] is read but not yet returned
	at, n int
}

func (f *frameReader) next() (Block, error) {
	if err := f.fill(0, modeEHeaderLen); err != nil {
		return Block{}, err
	}
	b, count, err := parseHeader(f.buf[f.at:])
	if err == nil {
		err = f.fill(modeEHeaderLen, modeEHeaderLen+count)
	}
	if err != nil {
		return Block{}, err
	}
	f.at += modeEHeaderLen + count
	if count > 0 {
		b.Data = f.buf[f.at-count : f.at]
	}
	return b, nil
}

// fill reads until buf[at:n] holds need bytes of the current frame;
// running out after exactly from of them is io.EOF, as in ReadBlockInto.
func (f *frameReader) fill(from, need int) error {
	if f.n-f.at >= need {
		return nil
	}
	if f.at+need+modeEHeaderLen > len(f.buf) {
		// Move the unread bytes to hdrAt, the buffer doubled up to
		// minIOBytes and grown to fit the frame and a header.
		buf := f.buf
		if size := max(min(2*len(buf), minIOBytes), hdrAt+need+modeEHeaderLen); size > len(buf) {
			buf = make([]byte, size)
		}
		f.n = hdrAt + copy(buf[hdrAt:], f.buf[f.at:f.n])
		f.at, f.buf = hdrAt, buf
	}
	m, err := io.ReadAtLeast(f.r, f.buf[f.n:], need-(f.n-f.at))
	if err == io.EOF && f.n-f.at > from {
		err = io.ErrUnexpectedEOF
	}
	f.n += m
	return err
}

// Assembler reassembles MODE E blocks arriving over any number of data
// connections into a contiguous buffer. Distinct connections carry
// disjoint byte ranges, so concurrent Place calls are safe: the copies
// touch disjoint regions and the received counter is atomic. No
// transfer path uses it — both endpoints reassemble through a
// WindowAssembler — it stays as the whole-object reference the
// benchmark ledger and the fuzz targets compare against.
type Assembler struct {
	buf      []byte
	base     uint64
	received atomic.Int64
}

// NewAssembler returns an assembler for a transfer of the given size.
func NewAssembler(size int64) (*Assembler, error) {
	return NewRegionAssembler(0, size)
}

// NewRegionAssembler returns an assembler for the file region
// [base, base+size): partial (ERET) and restarted (REST) retrievals
// receive blocks with absolute file offsets.
func NewRegionAssembler(base uint64, size int64) (*Assembler, error) {
	if size < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrDataProtocol)
	}
	return &Assembler{buf: make([]byte, size), base: base}, nil
}

// Place stores one data block. Blocks outside the announced region are
// protocol errors.
func (a *Assembler) Place(b Block) error {
	if len(b.Data) == 0 {
		return nil
	}
	end := b.Offset + uint64(len(b.Data))
	if b.Offset < a.base || end < b.Offset || end > a.base+uint64(len(a.buf)) {
		return fmt.Errorf("%w: block [%d,%d) outside region [%d,%d)",
			ErrDataProtocol, b.Offset, end, a.base, a.base+uint64(len(a.buf)))
	}
	copy(a.buf[b.Offset-a.base:end-a.base], b.Data)
	a.received.Add(int64(len(b.Data)))
	return nil
}

// Complete reports whether every byte has been received (overlapping
// duplicate blocks would overcount; GridFTP senders never overlap).
func (a *Assembler) Complete() bool { return a.received.Load() >= int64(len(a.buf)) }

// Bytes returns the assembled buffer; call only when Complete.
func (a *Assembler) Bytes() []byte { return a.buf }

// DrainConn reads frames from one data connection into the assembler
// until EOD. It returns the number of payload bytes received.
func (a *Assembler) DrainConn(r io.Reader) (int64, error) {
	var n int64
	fr := frameReader{r: r}
	for {
		b, err := fr.next()
		if err != nil {
			return n, err
		}
		if err := a.Place(b); err != nil {
			return n, err
		}
		n += int64(len(b.Data))
		if b.Desc&DescEOD != 0 {
			return n, nil
		}
	}
}
