//go:build unix

package gridftp

import (
	"net"
	"syscall"
)

// idlePeek looks at an idle connection's socket without reading from
// it: one MSG_PEEK recv, which returns at once because the runtime
// keeps every socket it polls non-blocking. The first look makes its
// RawConn and callback, so later looks, at the same conn, allocate none.
type idlePeek struct {
	raw  syscall.RawConn
	recv func(fd uintptr) bool
	buf  [1]byte
	err  error
}

// stale looks at conn: EAGAIN means nothing is pending and the channel
// is healthy; EOF, a reset, or any pending byte (a reply nobody asked
// for) means stale. ok is false when conn exposes no socket descriptor.
func (p *idlePeek) stale(conn net.Conn) (stale, ok bool) {
	if sc, isSock := conn.(syscall.Conn); p.raw == nil && isSock {
		p.raw, _ = sc.SyscallConn()
		p.recv = func(fd uintptr) bool {
			_, _, p.err = syscall.Recvfrom(int(fd), p.buf[:], syscall.MSG_PEEK)
			return true
		}
	}
	if p.raw == nil {
		return false, false
	}
	if err := p.raw.Read(p.recv); err != nil {
		return true, true
	}
	return p.err != syscall.EAGAIN && p.err != syscall.EWOULDBLOCK, true
}
