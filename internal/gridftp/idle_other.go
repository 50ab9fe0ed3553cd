//go:build !unix

package gridftp

import "net"

// peekStale has no socket to look at off unix: CheckIdle falls back to
// NOOP.
func peekStale(net.Conn) (stale, ok bool) { return false, false }
