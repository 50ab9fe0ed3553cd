//go:build !unix

package gridftp

import "net"

// idlePeek has no socket to look at off unix: CheckIdle falls back to
// NOOP.
type idlePeek struct{}

func (*idlePeek) stale(net.Conn) (stale, ok bool) { return false, false }
