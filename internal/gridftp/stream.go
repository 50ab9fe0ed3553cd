package gridftp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"gftpvc/internal/telemetry"
)

// This file is the client's data plane, one engine per direction:
// retrieve delivers an object region into an io.Writer through a
// bounded reassembly window, and store sends an io.Reader through the
// server's own sender, sendBlocks, whose connections claim its blocks
// as they come free — peak memory is at most a window (receive) or a
// frame buffer per connection (send), independent of object size.
// RetrTo/RetrToAt and StorFrom/StorFromAt expose them directly; the
// buffered Retr/Stor families (client.go) are the same engines over a
// byte slice.

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

// dataChans provides a transfer's data connections: the ones the last
// transfer kept, when it is not striped and every kept one is still
// idle, or else fresh ones, returned as addresses to dial: one per SPAS
// stripe, or the PASV address once per parallel stream. Kept ones that
// are not reused are closed, and the PASV or SPAS drops the server's.
func (c *Client) dataChans(striped bool) ([]*dataChan, []string, error) {
	kept := c.chans
	c.chans = nil
	if !striped && len(kept) == c.parallelism && idleChans(kept) {
		c.met.reuses.Inc()
		return kept, nil, nil
	}
	closeChans(kept)
	if striped {
		addrs, err := c.stripedPassive()
		return nil, addrs, err
	}
	addr, err := c.passive()
	if err != nil {
		return nil, nil, err
	}
	addrs := make([]string, c.parallelism)
	for i := range addrs {
		addrs[i] = addr
	}
	return nil, addrs, nil
}

// idleChans reports whether kept data connections may carry another
// transfer: no frame bytes left buffered, and no byte, EOF or reset
// waiting on a socket, by the peek CheckIdle makes. A connection with
// no socket descriptor (a WithDialFunc wrapper) passes unchecked, so a
// failure on it ends the transfer that finds it.
func idleChans(chans []*dataChan) bool {
	for _, dc := range chans {
		dc.raw.SetReadDeadline(time.Time{}) // a passed deadline fails the peek
		if stale, _ := dc.peek.stale(dc.raw); stale || dc.fr.at != dc.fr.n {
			return false
		}
	}
	return true
}

func closeChans(chans []*dataChan) {
	for _, dc := range chans {
		if dc.raw != nil {
			dc.raw.Close()
		}
	}
}

// keep ends a transfer that ran over chans: it holds them, with their
// frame buffers, for the next transfer when it succeeded and its 226
// says the server kept its ends too, and closes them otherwise. Kept
// connections are c's one cache, so c.peer is nil (see dropCache).
func (c *Client) keep(rep Reply, chans []*dataChan, striped bool, err error) {
	if err != nil || striped || !strings.HasSuffix(rep.Text, channelCached) {
		closeChans(chans)
		return
	}
	c.chans = chans
}

// dropCache forgets both kinds of cache a Client holds: the third-party
// peer, and its own kept data connections, which it closes. PASV,
// SPAS, a changed parallelism, a third-party copy (which may send PORT)
// and Close all start with it, so the server, which drops its cached
// channels on each of those, and the client never disagree about one.
func (c *Client) dropCache() {
	closeChans(c.chans)
	c.peer, c.chans = nil, nil
}

// pumpConns is the data phase both engines share: dial every data
// address, or re-wrap the kept connections when chans is set, run pump
// on each connection concurrently, wait. abort is told the first
// failure — a pump or dial error, or ctx's cancellation, which also
// closes every open connection so blocked reads and writes fail at
// once — so state the pumps share (a window, a block source) releases
// its waiters. It returns the connections, for keep, and nil with the
// failure's root cause, having closed them all, when a pump failed.
func (c *Client) pumpConns(ctx context.Context, chans []*dataChan, addrs []string, sp *telemetry.Span, abort func(error), pump func(*dataChan) error) ([]*dataChan, error) {
	if chans == nil {
		chans = make([]*dataChan, len(addrs))
		for i := range chans {
			chans[i] = &dataChan{}
		}
	}
	sp.SetStreams(len(chans))
	sp.Phase(telemetry.PhaseStream)
	lim := c.xferLimiter()
	var shaped *telemetry.Counter
	if lim != nil {
		shaped = c.met.shapedBytes()
	}
	set := &connSet{}
	stop := context.AfterFunc(ctx, func() {
		abort(ctx.Err())
		set.closeAll()
	})
	var wg sync.WaitGroup
	errs := make([]error, len(chans))
	for i, dc := range chans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if dc.raw == nil {
				dc.raw, err = c.dial(addrs[i])
			}
			switch {
			case err != nil:
			case !set.add(dc.raw):
				err = ctx.Err()
			default:
				// Each transfer wraps with its own deadline, span and pacing.
				dc.ic = instrumentedConn{Conn: dc.raw, idle: c.dataTimeout, span: sp, shaped: shaped}
				dc.conn = wrapDataConn(ctx, &dc.ic, lim)
				dc.fr.r = dc.conn
				err = pump(dc)
			}
			if errs[i] = err; err != nil {
				abort(err)
			}
		}()
	}
	wg.Wait()
	stop()
	sp.Phase(telemetry.PhaseTeardown)
	// A cancellation caused the connection errors it raced, so it is
	// the root cause.
	if err := cmp.Or(ctx.Err(), cmp.Or(errs...)); err != nil {
		closeChans(chans)
		return nil, err
	}
	return chans, nil
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
// REST+RETR when only an offset is, plain RETR otherwise — over the
// kept data connections (see dataChans), parallelism connections to one
// PASV listener, or one connection per SPAS stripe when striped. The
// region length is the one the 150 announces; a server that announces
// none has the delivered length checked by a SIZE after its 226. opts
// are applied (and persist) before anything else runs.
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
	chans, addrs, err := c.dataChans(striped)
	if err != nil {
		return TransferStats{}, err
	}
	var opening, rep Reply // rep, the 226, says whether to keep chans
	defer func() { c.keep(rep, chans, striped, err) }()
	n := max(len(chans), len(addrs))
	start := time.Now()
	switch {
	case length >= 0:
		opening, err = c.do("ERET", fmt.Sprintf("ERET P %d %d %s", offset, length, name), 150)
	case offset > 0:
		if _, err = c.do("REST", fmt.Sprintf("REST %d", offset), 350); err == nil {
			opening, err = c.do("RETR", "RETR "+name, 150)
		}
	default:
		opening, err = c.do("RETR", "RETR "+name, 150)
	}
	if err != nil {
		return TransferStats{}, err
	}
	regionLen := announcedSize(opening.Text)
	if bs, ok := w.(*byteSink); ok && regionLen > 0 {
		// The length is the server's claim: presize up to a bound, and
		// let anything larger grow as bytes actually arrive.
		bs.buf = make([]byte, 0, min(regionLen, 256<<20))
	}
	asm, err := NewWindowAssembler(w, uint64(offset), regionLen, c.windowSize, c.dataTimeout)
	if err != nil {
		c.drainReply() // the server is mid-transfer; consume its verdict
		return TransferStats{}, err
	}
	chans, err = c.pumpConns(ctx, chans, addrs, sp, asm.Abort, func(dc *dataChan) error {
		_, err := asm.drain(&dc.fr, n, unboundedEnd)
		return err
	})
	stats = c.stats(asm.Delivered(), start, n, striped)
	stats.WireBytes = asm.WireBytes()
	if err != nil {
		c.drainReply()
		return stats, err
	}
	if rep, err = c.expect("RETR-complete", 226); err == nil {
		err = asm.Finish()
	}
	if err == nil && regionLen < 0 {
		err = c.checkDelivered(name, offset, length, asm.Delivered())
	}
	return stats, err
}

// checkDelivered holds a retrieval whose 150 announced no length to the
// region SIZE bounds: [offset, size), cut to length when that is set.
func (c *Client) checkDelivered(name string, offset, length, delivered int64) error {
	size, err := c.Size(name)
	if err != nil {
		return err
	}
	want := size - offset
	if length >= 0 {
		want = min(want, length)
	}
	if delivered != want {
		return fmt.Errorf("%w: delivered %d bytes, SIZE bounds the region at %d", ErrDataProtocol, delivered, want)
	}
	return nil
}

// StorFrom uploads size bytes read from r (size < 0 when unknown; it
// is informational only — the server is not told it; ROADMAP item
// 21(c) is where it would be). Memory stays bounded at one batch of
// MODE E blocks per stream regardless of object size.
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
// (REST+STOR when offset > 0) over the connections dataChans provides,
// as retrieve does. opts are applied first, as in retrieve.
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
	chans, addrs, err := c.dataChans(striped)
	if err != nil {
		return TransferStats{}, err
	}
	var rep Reply // the 226, which says whether to keep chans
	defer func() { c.keep(rep, chans, striped, err) }()
	start := time.Now()
	if offset > 0 {
		if _, err := c.do("REST", fmt.Sprintf("REST %d", offset), 350); err != nil {
			return TransferStats{}, err
		}
	}
	if _, err := c.do("STOR", "STOR "+name, 150); err != nil {
		return TransferStats{}, err
	}
	n := max(len(chans), len(addrs))
	// Upload blocks must fit inside the receiver's reassembly window
	// (a block larger than the window is a protocol error there), so
	// the block size follows the client's own window setting: a peer
	// configured symmetrically always accepts our blocks, with room
	// for four in flight before anything parks.
	src := &blockSource{r: r, pos: offset, end: -1, blockSize: min(max(c.windowSize/4, 4<<10), 256<<10)}
	chans, err = c.pumpConns(ctx, chans, addrs, sp, src.fail, func(dc *dataChan) (err error) {
		dc.send, err = sendBlocks(src, dc.conn, dc.send)
		return err
	})
	stats = c.stats(src.sent.Load(), start, n, striped)
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
	rep, err = c.expect("STOR-complete", 226)
	return stats, err
}
