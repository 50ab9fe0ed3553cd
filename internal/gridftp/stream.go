package gridftp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gftpvc/internal/telemetry"
)

// This file is the client's data plane, one engine per direction:
// retrieve delivers an object region into an io.Writer through a
// bounded reassembly window, and store sends from an io.Reader in
// block-size chunks — peak memory is at most a window (receive) or a
// few blocks (send), independent of object size. RetrTo/RetrToAt and
// StorFrom/StorFromAt expose them directly; the buffered Retr/Stor
// families (client.go) are the same engines over a byte slice.

// connSet tracks a transfer's open data connections so a context
// cancellation can tear them down from outside the transfer
// goroutines; blocked reads and writes then fail immediately.
type connSet struct {
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

// add registers a connection, closing it instead when the set is
// already torn down (a dial that raced the cancellation).
func (s *connSet) add(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		c.Close()
		return false
	}
	s.conns = append(s.conns, c)
	return true
}

func (s *connSet) closeAll() {
	s.mu.Lock()
	conns := s.conns
	s.conns, s.closed = nil, true
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// dataAddrs asks the server for the transfer's data endpoints: one
// address per SPAS stripe, or the PASV address repeated once per
// parallel stream.
func (c *Client) dataAddrs(striped bool) ([]string, error) {
	if striped {
		return c.stripedPassive()
	}
	addr, err := c.passive()
	if err != nil {
		return nil, err
	}
	addrs := make([]string, c.parallelism)
	for i := range addrs {
		addrs[i] = addr
	}
	return addrs, nil
}

// pumpConns is the data phase both engines share: dial every data
// address, run pump on each connection concurrently, wait. abort is
// told the first failure — a pump or dial error, or ctx's cancellation,
// which also closes every open connection so blocked reads and writes
// fail at once — so state the pumps share (a window, a chunk queue)
// releases its waiters. The result is the failure's root cause, nil
// when every pump finished.
func (c *Client) pumpConns(ctx context.Context, addrs []string, sp *telemetry.Span, abort func(error), pump func(net.Conn) error) error {
	sp.SetStreams(len(addrs))
	sp.Phase(telemetry.PhaseStream)
	lim := c.xferLimiter()
	set := &connSet{}
	stop := context.AfterFunc(ctx, func() {
		abort(ctx.Err())
		set.closeAll()
	})
	var wg sync.WaitGroup
	errs := make([]error, len(addrs))
	for i, addr := range addrs {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			conn, err := c.dataConn(ctx, addr, sp, lim)
			switch {
			case err != nil:
			case !set.add(conn):
				err = ctx.Err()
			default:
				err = pump(conn)
				conn.Close()
			}
			if errs[i] = err; err != nil {
				abort(err)
			}
		}(i, addr)
	}
	wg.Wait()
	stop()
	sp.Phase(telemetry.PhaseTeardown)
	// A cancellation caused the connection errors it raced, so it is
	// the root cause.
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// beginTransfer opens one client transfer's instrumentation as op: a
// span tracing data_setup -> stream -> teardown, linked into the bound
// trace. The returned end func closes the span and publishes the client
// transfer metrics.
func (c *Client) beginTransfer(op, name string) (*telemetry.Span, func(TransferStats, error)) {
	sp := c.hub.Span(op, name, telemetry.PhaseSetup)
	if c.trace.TraceID != "" {
		sp.SetTrace(c.trace.TraceID, c.trace.ParentSID)
	}
	start := time.Now()
	return sp, func(stats TransferStats, err error) {
		c.met.transferDone(op, err, sp.Bytes(), time.Since(start).Seconds())
		c.met.deliveredBytes(op, stats.Bytes)
		sp.End(err)
	}
}

// RetrTo fetches an object and streams it into w with bounded memory:
// out-of-order MODE E blocks park in a sliding window (WithWindow) and
// every byte reaching w is contiguous and delivered exactly once. The
// returned stats carry the delivered count in Bytes and the raw
// payload count in WireBytes even when the transfer fails — the
// delivered watermark (offset + Bytes) is the REST offset a
// resume-aware retry restarts from.
func (c *Client) RetrTo(ctx context.Context, name string, w io.Writer, opts ...Option) (TransferStats, error) {
	return c.RetrToAt(ctx, name, w, 0, opts...)
}

// RetrToAt is RetrTo resuming at a byte offset: REST is issued and w
// receives the object's bytes from offset onward.
func (c *Client) RetrToAt(ctx context.Context, name string, w io.Writer, offset int64, opts ...Option) (TransferStats, error) {
	return c.retrieve(ctx, "retr_stream", name, w, false, offset, -1, opts)
}

// retrieve is the client's one download engine, instrumented as op: a
// span tracing data_setup -> stream -> teardown and the client transfer
// metrics. It fetches [offset, offset+length) of the named object
// (length < 0: to the end) into w — as ERET when a length is given,
// REST+RETR when only an offset is, plain RETR otherwise — over
// parallelism connections to one PASV listener, or one connection per
// SPAS stripe when striped. opts are applied (and persist) before
// anything else runs.
func (c *Client) retrieve(ctx context.Context, op, name string, w io.Writer, striped bool, offset, length int64, opts []Option) (stats TransferStats, err error) {
	if err := c.ApplyOptions(opts...); err != nil {
		return TransferStats{}, err
	}
	sp, end := c.beginTransfer(op, name)
	defer func() { end(stats, err) }()
	if w == nil {
		return TransferStats{}, errors.New("gridftp: nil sink")
	}
	if offset < 0 {
		return TransferStats{}, errors.New("gridftp: negative restart offset")
	}
	if err := ctx.Err(); err != nil {
		return TransferStats{}, err
	}
	size, err := c.Size(name)
	if err != nil {
		return TransferStats{}, err
	}
	if offset > size {
		return TransferStats{}, errors.New("gridftp: offset beyond object size")
	}
	regionLen := size - offset
	if length >= 0 && length < regionLen {
		regionLen = length
	}
	addrs, err := c.dataAddrs(striped)
	if err != nil {
		return TransferStats{}, err
	}
	start := time.Now()
	switch {
	case length >= 0:
		_, err = c.do("ERET", fmt.Sprintf("ERET P %d %d %s", offset, length, name), 150)
	case offset > 0:
		if _, err = c.do("REST", fmt.Sprintf("REST %d", offset), 350); err == nil {
			_, err = c.do("RETR", "RETR "+name, 150)
		}
	default:
		_, err = c.do("RETR", "RETR "+name, 150)
	}
	if err != nil {
		return TransferStats{}, err
	}
	if bs, ok := w.(*byteSink); ok {
		// The length is the server's claim: presize up to a bound, and
		// let anything larger grow as bytes actually arrive.
		bs.buf = make([]byte, 0, min(regionLen, 256<<20))
	}
	asm, err := NewWindowAssembler(w, uint64(offset), regionLen, c.windowSize, c.dataTimeout)
	if err != nil {
		c.drainReply() // the server is mid-transfer; consume its verdict
		return TransferStats{}, err
	}
	err = c.pumpConns(ctx, addrs, sp, asm.Abort, func(conn net.Conn) error {
		_, err := asm.DrainConn(conn)
		return err
	})
	stats = c.stats(asm.Delivered(), start, len(addrs), striped)
	stats.WireBytes = asm.WireBytes()
	if err != nil {
		c.drainReply()
		return stats, err
	}
	if _, err := c.expect("RETR-complete", 226); err != nil {
		return stats, err
	}
	if err := asm.Finish(); err != nil {
		return stats, err
	}
	return stats, nil
}

// StorFrom uploads size bytes read from r (size < 0 when unknown; it
// is informational only — the server is not told it; ROADMAP 1(b),
// ALLO, is where it would be). Memory stays bounded at a few MODE E
// blocks per stream regardless of object size.
func (c *Client) StorFrom(ctx context.Context, name string, r io.Reader, size int64, opts ...Option) (TransferStats, error) {
	return c.StorFromAt(ctx, name, r, 0, size, opts...)
}

// StorFromAt is StorFrom resuming at a byte offset: REST is issued and
// r must supply the object's bytes from offset onward — the windowed
// receiver appends them to its partial object.
func (c *Client) StorFromAt(ctx context.Context, name string, r io.Reader, offset, size int64, opts ...Option) (TransferStats, error) {
	return c.store(ctx, "stor_stream", name, r, false, offset, opts)
}

// store is the client's one upload engine, instrumented as op like
// retrieve. It sends r as the named object's bytes from offset onward
// (REST+STOR when offset > 0) over parallelism connections to one PASV
// listener, or one connection per SPAS stripe when striped. opts are
// applied first, as in retrieve.
func (c *Client) store(ctx context.Context, op, name string, r io.Reader, striped bool, offset int64, opts []Option) (stats TransferStats, err error) {
	if err := c.ApplyOptions(opts...); err != nil {
		return TransferStats{}, err
	}
	sp, end := c.beginTransfer(op, name)
	defer func() { end(stats, err) }()
	if r == nil {
		return TransferStats{}, errors.New("gridftp: nil source")
	}
	if offset < 0 {
		return TransferStats{}, errors.New("gridftp: negative restart offset")
	}
	if err := ctx.Err(); err != nil {
		return TransferStats{}, err
	}
	addrs, err := c.dataAddrs(striped)
	if err != nil {
		return TransferStats{}, err
	}
	start := time.Now()
	if offset > 0 {
		if _, err := c.do("REST", fmt.Sprintf("REST %d", offset), 350); err != nil {
			return TransferStats{}, err
		}
	}
	if _, err := c.do("STOR", "STOR "+name, 150); err != nil {
		return TransferStats{}, err
	}
	n := len(addrs)
	// Upload blocks must fit inside the receiver's reassembly window
	// (a block larger than the window is a protocol error there), so
	// the chunk size follows the client's own window setting: a peer
	// configured symmetrically always accepts our blocks, with room
	// for four in flight before anything parks.
	blockSize := c.windowSize / 4
	if blockSize > 256<<10 {
		blockSize = 256 << 10
	}
	if blockSize < 4<<10 {
		blockSize = 4 << 10
	}
	// The reader goroutine frames framesPerWrite blocks of r in place in
	// a buffer (the first payload at payloadAt) for a sender's one Write.
	// The free list caps in-flight buffers at two per stream, the upload
	// path's whole memory budget.
	type batch struct {
		buf     []byte
		payload int
	} // frames from hdrAt on
	per := framesPerWrite(blockSize)
	free := make(chan []byte, 2*n)
	for i := 0; i < 2*n; i++ {
		free <- make([]byte, hdrAt+per*(modeEHeaderLen+blockSize))
	}
	frames := make(chan batch, n)
	stopc := make(chan struct{})
	var stopOnce sync.Once
	stopSend := func() { stopOnce.Do(func() { close(stopc) }) }
	var sent atomic.Int64
	var readErr error
	// readerDone closes before frames (LIFO defers), so senders that
	// drained a closed frames channel are guaranteed to observe the
	// reader's final readErr — a source read error can never be
	// mistaken for a clean EOF.
	readerDone := make(chan struct{})
	go func() {
		defer close(frames)
		defer close(readerDone)
		pos := uint64(offset)
		for {
			var buf []byte
			select {
			case buf = <-free:
			case <-stopc:
				return
			}
			b := batch{buf: buf[:hdrAt]}
			var err error
			for k := 0; k < per && err == nil; k++ {
				at := len(b.buf)
				var m int
				m, err = io.ReadFull(r, buf[at+modeEHeaderLen:at+modeEHeaderLen+blockSize])
				if m > 0 {
					putHeader(buf[at:], 0, m, pos)
					b.buf = buf[:at+modeEHeaderLen+m]
					b.payload += m
					pos += uint64(m)
				}
			}
			if b.payload > 0 {
				select {
				case frames <- b:
				case <-stopc:
					return
				}
			}
			if err != nil {
				if err != io.EOF && err != io.ErrUnexpectedEOF {
					readErr = err
				}
				return
			}
		}
	}()
	err = c.pumpConns(ctx, addrs, sp, func(error) { stopSend() }, func(conn net.Conn) error {
		for b := range frames {
			if _, err := conn.Write(b.buf[hdrAt:]); err != nil {
				return err
			}
			// Payload counts only once its frames reached the socket:
			// WireBytes promises exact accounting even on failure.
			sent.Add(int64(b.payload))
			select {
			case free <- b.buf[:cap(b.buf)]:
			case <-stopc:
				return ctx.Err()
			}
		}
		return WriteBlock(conn, Block{Desc: DescEOD})
	})
	stopSend()
	stats = c.stats(sent.Load(), start, n, striped)
	stats.WireBytes = stats.Bytes
	// Every path past the STOR exchange above lands here, so the
	// server has accepted the upload and begun (or truncated) the named
	// object — the signal resume logic needs before trusting the
	// destination's SIZE as this transfer's watermark.
	stats.StorAccepted = true
	if err != nil {
		c.drainReply()
		return stats, err
	}
	// Senders completed cleanly, which only happens after the reader
	// closed frames — and readerDone closes before frames, so this
	// read of readErr is ordered after its final write. (A reader
	// still blocked on r implies a sender error, caught above.)
	var srcErr error
	select {
	case <-readerDone:
		srcErr = readErr
	default:
	}
	if srcErr != nil {
		c.drainReply()
		return stats, fmt.Errorf("gridftp: reading upload source: %w", srcErr)
	}
	if _, err := c.expect("STOR-complete", 226); err != nil {
		return stats, err
	}
	return stats, nil
}
