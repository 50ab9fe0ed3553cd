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
// RetrToAt delivers an object region into an io.Writer through a
// bounded reassembly window, and StorFromAt sends an io.Reader through the
// server's own sender, sendBlocks, whose connections claim its blocks
// as they come free — peak memory is at most a window (receive) or a
// frame buffer per connection (send), independent of object size.
// A Region picks the transfer's shape.

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

// beginTransfer opens one client transfer's instrumentation as op: the
// Client's one transfer span, begun afresh, tracing data_setup ->
// stream -> teardown and linked into the bound trace. endTransfer
// closes it.
func (c *Client) beginTransfer(op, name string) *telemetry.Span {
	sp := &c.xfer
	c.hub.Spans().Begin(sp, op, name, telemetry.PhaseSetup)
	if c.trace.TraceID != "" {
		sp.SetTrace(c.trace.TraceID, c.trace.ParentSID)
	}
	return sp
}

// endTransfer closes the transfer span beginTransfer opened as op at
// start and publishes the client transfer metrics.
func (c *Client) endTransfer(op string, start time.Time, stats TransferStats, err error) {
	c.met.transferDone(op, err, c.xfer.Bytes(), time.Since(start).Seconds())
	c.met.deliveredBytes(op, stats.Bytes)
	c.xfer.End(err)
}

// Region is the part of an object a transfer moves, and how. The zero
// Region is the whole object over the session's parallel streams. A
// Length above zero retrieves [Offset, Offset+Length) with ERET;
// otherwise an Offset above zero restarts at Offset with REST, and a
// retrieval runs to the end of the object. Striped runs the transfer
// over one connection per server stripe (SPAS) instead.
type Region struct {
	Offset, Length int64
	Striped        bool
}

// op names a transfer over at as its span and metric op, or says why at
// is not a region: a negative field, or a length on a store.
func (at Region) op(store bool) (string, error) {
	switch {
	case at.Offset < 0:
		return "", errors.New("gridftp: negative restart offset")
	case at.Length < 0:
		return "", errors.New("gridftp: negative region length")
	case store && at.Length != 0:
		return "", errors.New("gridftp: a store takes no region length")
	case store && at.Offset > 0:
		return "rest_stor", nil
	case store && at.Striped:
		return "stor_striped", nil
	case store:
		return "stor", nil
	case at.Length > 0:
		return "eret", nil
	case at.Offset > 0:
		return "rest_retr", nil
	case at.Striped:
		return "retr_striped", nil
	}
	return "retr", nil
}

// RetrTo retrieves the whole object into w: RetrToAt at the zero Region.
func (c *Client) RetrTo(ctx context.Context, name string, w io.Writer, opts ...Option) (TransferStats, error) {
	return c.RetrToAt(ctx, name, w, Region{}, opts...)
}

// RetrToAt is the client's one download engine. It fetches the region
// at of the named object into w with bounded memory: out-of-order MODE
// E blocks park in a sliding window (WithWindow) and every byte
// reaching w is contiguous and delivered exactly once. It runs over the
// kept data connections (see dataChans), parallelism connections to one
// PASV listener, or one connection per SPAS stripe, instrumented under
// the op at names: a span tracing data_setup -> stream -> teardown and
// the client transfer metrics. The region length is the one the 150
// announces; a server that announces none has the delivered length
// checked by a SIZE after its 226. A Region that is not one fails
// before anything reaches the wire; opts are applied (and persist)
// before anything else runs. The returned stats carry the delivered
// count in Bytes and the raw payload count in WireBytes even when the
// transfer fails — the delivered watermark (at.Offset + Bytes) is the
// REST offset a resume-aware retry restarts from.
func (c *Client) RetrToAt(ctx context.Context, name string, w io.Writer, at Region, opts ...Option) (stats TransferStats, err error) {
	op, err := at.op(false)
	if err != nil {
		return TransferStats{}, err
	}
	if err := c.ApplyOptions(opts...); err != nil {
		return TransferStats{}, err
	}
	sp, began := c.beginTransfer(op, name), time.Now()
	defer func() { c.endTransfer(op, began, stats, err) }()
	if w == nil {
		return TransferStats{}, errors.New("gridftp: nil sink")
	}
	if err := ctx.Err(); err != nil {
		return TransferStats{}, err
	}
	chans, addrs, err := c.dataChans(at.Striped)
	if err != nil {
		return TransferStats{}, err
	}
	var opening, rep Reply // rep, the 226, says whether to keep chans
	defer func() { c.keep(rep, chans, at.Striped, err) }()
	n := max(len(chans), len(addrs))
	start := time.Now()
	switch {
	case at.Length > 0:
		opening, err = c.do("ERET", fmt.Sprintf("ERET P %d %d %s", at.Offset, at.Length, name), 150)
	case at.Offset > 0:
		if _, err = c.do("REST", fmt.Sprintf("REST %d", at.Offset), 350); err == nil {
			opening, err = c.do("RETR", "RETR "+name, 150)
		}
	default:
		opening, err = c.do("RETR", "RETR "+name, 150)
	}
	if err != nil {
		return TransferStats{}, err
	}
	regionLen := announcedSize(opening.Text)
	// The window is this call's own, unlike the span: pumpConns' abort
	// hook (a context.AfterFunc) can still run after the call returns,
	// and on a window kept in the Client it would abort the next
	// transfer with this call's context error.
	asm, err := NewWindowAssembler(w, uint64(at.Offset), regionLen, c.windowSize, c.dataTimeout)
	if err != nil {
		c.drainReply() // the server is mid-transfer; consume its verdict
		return TransferStats{}, err
	}
	chans, err = c.pumpConns(ctx, chans, addrs, sp, asm.Abort, func(dc *dataChan) error {
		_, err := asm.drain(&dc.fr, n, unboundedEnd)
		return err
	})
	stats = c.stats(asm.Delivered(), start, n, at.Striped)
	stats.WireBytes = asm.WireBytes()
	if err != nil {
		c.drainReply()
		return stats, err
	}
	if rep, err = c.expect("RETR-complete", 226); err == nil {
		err = asm.Finish()
	}
	if err == nil && regionLen < 0 {
		err = c.checkDelivered(name, at, asm.Delivered())
	}
	return stats, err
}

// checkDelivered holds a retrieval whose 150 announced no length to the
// region SIZE bounds: [at.Offset, size), cut to at.Length when that is
// set.
func (c *Client) checkDelivered(name string, at Region, delivered int64) error {
	size, err := c.Size(name)
	if err != nil {
		return err
	}
	want := size - at.Offset
	if at.Length > 0 {
		want = min(want, at.Length)
	}
	if delivered != want {
		return fmt.Errorf("%w: delivered %d bytes, SIZE bounds the region at %d", ErrDataProtocol, delivered, want)
	}
	return nil
}

// StorFrom uploads r as the whole object: StorFromAt at the zero
// Region. size is not read.
func (c *Client) StorFrom(ctx context.Context, name string, r io.Reader, size int64, opts ...Option) (TransferStats, error) {
	return c.StorFromAt(ctx, name, r, Region{}, opts...)
}

// StorFromAt is the client's one upload engine, instrumented, checked
// and connected like RetrToAt. It sends r as the named object's bytes
// from at.Offset onward, the windowed receiver appending them to its
// partial object when at.Offset is above zero (REST). A store Region
// has no Length. Memory stays bounded at one batch of MODE E blocks per
// stream regardless of object size.
func (c *Client) StorFromAt(ctx context.Context, name string, r io.Reader, at Region, opts ...Option) (stats TransferStats, err error) {
	op, err := at.op(true)
	if err != nil {
		return TransferStats{}, err
	}
	if err := c.ApplyOptions(opts...); err != nil {
		return TransferStats{}, err
	}
	sp, began := c.beginTransfer(op, name), time.Now()
	defer func() { c.endTransfer(op, began, stats, err) }()
	if r == nil {
		return TransferStats{}, errors.New("gridftp: nil source")
	}
	if err := ctx.Err(); err != nil {
		return TransferStats{}, err
	}
	chans, addrs, err := c.dataChans(at.Striped)
	if err != nil {
		return TransferStats{}, err
	}
	var rep Reply // the 226, which says whether to keep chans
	defer func() { c.keep(rep, chans, at.Striped, err) }()
	start := time.Now()
	if at.Offset > 0 {
		if _, err := c.do("REST", fmt.Sprintf("REST %d", at.Offset), 350); err != nil {
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
	src := &blockSource{r: r, pos: at.Offset, end: -1, blockSize: min(max(c.windowSize/4, 4<<10), 256<<10)}
	chans, err = c.pumpConns(ctx, chans, addrs, sp, src.fail, func(dc *dataChan) (err error) {
		dc.send, err = sendBlocks(src, dc.conn, dc.send)
		return err
	})
	stats = c.stats(src.sent.Load(), start, n, at.Striped)
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
