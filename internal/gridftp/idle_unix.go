//go:build unix

package gridftp

import (
	"net"
	"syscall"
)

// peekStale looks at an idle control connection's socket without
// reading from it: one MSG_PEEK recv, which returns at once because the
// runtime keeps every socket it polls non-blocking. EAGAIN means
// nothing is pending and the channel is healthy; EOF, a reset, or any
// pending byte (a reply nobody asked for) means stale. ok is false when
// conn exposes no socket descriptor.
func peekStale(conn net.Conn) (stale, ok bool) {
	sc, isSock := conn.(syscall.Conn)
	if !isSock {
		return false, false
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false, false
	}
	var buf [1]byte
	var rerr error
	if err := raw.Read(func(fd uintptr) bool {
		_, _, rerr = syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK)
		return true
	}); err != nil {
		return true, true
	}
	return rerr != syscall.EAGAIN && rerr != syscall.EWOULDBLOCK, true
}
