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

// WriteBlock writes one MODE E frame to w.
func WriteBlock(w io.Writer, b Block) error {
	var hdr [modeEHeaderLen]byte
	hdr[0] = b.Desc
	binary.BigEndian.PutUint64(hdr[1:9], uint64(len(b.Data)))
	binary.BigEndian.PutUint64(hdr[9:17], b.Offset)
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

// ReadBlock reads one MODE E frame from r. The returned Data is freshly
// allocated and owned by the caller.
func ReadBlock(r io.Reader) (Block, error) {
	b, _, err := ReadBlockInto(r, nil)
	return b, err
}

// ReadBlockInto reads one MODE E frame using scratch as the payload
// buffer, growing it as needed; the returned Block's Data aliases the
// returned scratch and is valid only until the next call. Receivers
// that copy payloads out immediately (window reassembly on both
// endpoints) use it to avoid a per-frame allocation.
func ReadBlockInto(r io.Reader, scratch []byte) (Block, []byte, error) {
	var hdr [modeEHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Block{}, scratch, err
	}
	count := binary.BigEndian.Uint64(hdr[1:9])
	if count > maxBlock {
		return Block{}, scratch, fmt.Errorf("%w: block of %d bytes", ErrDataProtocol, count)
	}
	b := Block{Desc: hdr[0], Offset: binary.BigEndian.Uint64(hdr[9:17])}
	if count > 0 {
		if uint64(cap(scratch)) < count {
			scratch = make([]byte, count)
		}
		b.Data = scratch[:count]
		if _, err := io.ReadFull(r, b.Data); err != nil {
			return Block{}, scratch, err
		}
	}
	return b, scratch, nil
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
	for {
		b, err := ReadBlock(r)
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
