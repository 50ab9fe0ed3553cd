package gridftp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// refReadReply is the reply parser readReply replaced, one ReadString
// per line: the reference FuzzReadReply holds it to. digits reports
// whether every line it parsed began with three ASCII digits; strconv.Atoi
// also takes a sign ("+12", "-12"), which readReply refuses. longest is
// the longest line it read, line end included: ReadString has no cap.
func refReadReply(r *bufio.Reader) (rep Reply, digits bool, longest int, err error) {
	digits = true
	for {
		line, err := r.ReadString('\n')
		longest = max(longest, len(line))
		if err != nil {
			return rep, digits, longest, err
		}
		line = strings.TrimRight(line, "\r\n")
		if len(line) < 4 {
			return rep, digits, longest, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		code, err := strconv.Atoi(line[:3])
		if err != nil {
			return rep, digits, longest, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		digits = digits && strings.Trim(line[:3], "0123456789") == ""
		rep.Code = code
		switch line[3] {
		case ' ':
			rep.Text = line[4:]
			return rep, digits, longest, nil
		case '-':
			rep.Lines = append(rep.Lines, line[4:])
		default:
			return rep, digits, longest, fmt.Errorf("gridftp: malformed reply %q", line)
		}
	}
}

// FuzzReadReply holds readReply to refReadReply on an arbitrary reply
// stream, read through the smallest bufio buffer (so most lines outgrow
// it) and the default one. Reply by reply, both must accept with the
// same Code, Text and Lines, or both fail with the same error. Two
// divergences are allowed: a reply with a signed code, which readReply
// alone refuses, as malformed; and a reply one of whose lines, line end
// included, runs past maxControlLine, which readReply must refuse as
// malformed and desync on, however the reference reads it. The texts
// handed out earlier must still read the same at the end: a text
// interned as a view of the read buffer would be overwritten by later
// lines.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("220 ready\r\n"))
	f.Add([]byte("211-Features:\r\n PASV\r\n211-MODE E\r\n211 End\r\n"))
	f.Add([]byte("150 opening data connection (65536 bytes)\n226 transfer complete\n"))
	f.Add([]byte("226 " + strings.Repeat("long text ", 500) + "\r\n226 ok\r\n"))
	f.Add([]byte("211-" + strings.Repeat("x", 5000) + "\r\n211 " + strings.Repeat("y", 40) + "\r\n"))
	f.Add(bytes.Repeat([]byte("150 opening data connection (65536 bytes)\r\n226 transfer complete\r\n"), 12))
	var rot []byte
	for i := 0; i < 20; i++ {
		rot = fmt.Appendf(rot, "213 %d\r\n226 transfer complete\r\n", i%10)
	}
	f.Add(rot)
	f.Add([]byte("+12 signed\r\n226 ok\r\n"))
	f.Add([]byte("-12 signed\r\n"))
	f.Add([]byte("12 short\r\n"))
	f.Add([]byte("abc text\r\n"))
	f.Add([]byte("226x no separator\r\n"))
	f.Add([]byte("226 no line end"))
	f.Add([]byte("226 ok\r\r\n\r\n"))
	f.Add([]byte{})
	f.Add([]byte("226 " + strings.Repeat("z", maxControlLine-6) + "\r\n226 ok\r\n"))
	f.Add([]byte("226 " + strings.Repeat("z", maxControlLine-5) + "\r\n226 ok\r\n"))
	f.Add([]byte("211-" + strings.Repeat("z", maxControlLine+1) + "\n211 end\n"))
	f.Add([]byte("226 " + strings.Repeat("z", maxControlLine)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, size := range []int{16, 4096} {
			c := &Client{r: bufio.NewReaderSize(bytes.NewReader(data), size)}
			ref := bufio.NewReader(bytes.NewReader(data))
			var got, want []Reply
			for {
				rep, err := c.readReply()
				wrep, digits, longest, werr := refReadReply(ref)
				if longest > maxControlLine {
					if err == nil || !c.desynced || !strings.HasPrefix(err.Error(), "gridftp: malformed reply") {
						t.Fatalf("buffer %d: a %d-byte line read as %+v, %v (desynced %v); want malformed and desynced",
							size, longest, rep, err, c.desynced)
					}
					break
				}
				if !digits {
					if err == nil || !strings.HasPrefix(err.Error(), "gridftp: malformed reply") {
						t.Fatalf("buffer %d: a signed code parsed as %+v, %v; want malformed", size, rep, err)
					}
					break
				}
				if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
					t.Fatalf("buffer %d: readReply %+v, %v; reference %+v, %v", size, rep, err, wrep, werr)
				}
				if err != nil {
					if !c.desynced {
						t.Fatalf("buffer %d: failed read %v left the client in sync", size, err)
					}
					break
				}
				if !reflect.DeepEqual(rep, wrep) {
					t.Fatalf("buffer %d: readReply %+v, reference %+v", size, rep, wrep)
				}
				if rep.Code < 0 || rep.Code > 999 {
					t.Fatalf("buffer %d: code %d is not three digits", size, rep.Code)
				}
				got, want = append(got, rep), append(want, wrep)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("buffer %d: earlier replies changed under later reads", size)
			}
		}
	})
}

// TestLongReplyLineRefused: a 1 MiB reply line with no newline is a
// malformed reply that desyncs the client, refused after at most one
// read buffer past maxControlLine rather than gathered whole.
func TestLongReplyLineRefused(t *testing.T) {
	src := &countingReader{r: bytes.NewReader(append([]byte("226 "), bytes.Repeat([]byte("x"), 1<<20)...))}
	c := &Client{r: bufio.NewReader(src)}
	rep, err := c.readReply()
	if err == nil || !errors.Is(err, errLongLine) || !strings.HasPrefix(err.Error(), "gridftp: malformed reply") {
		t.Fatalf("1 MiB reply line: %+v, %v; want a malformed reply", rep, err)
	}
	if !c.desynced {
		t.Fatal("an over-long reply left the client in sync")
	}
	if limit := maxControlLine + 4096; src.n > limit {
		t.Fatalf("read %d bytes of the line before refusing it, want <= %d", src.n, limit)
	}
}

// countingListener counts the bytes its accepted connections read.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	return countingConn{c, l.n}, err
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// TestLongCommandLineRefused: a client that sends a 1 MiB command line
// with no newline gets 500 and loses the session, and the server reads
// at most one buffer past maxControlLine of it.
func TestLongCommandLineRefused(t *testing.T) {
	var read atomic.Int64
	s := startServer(t, Config{ControlListen: func(network, addr string) (net.Listener, error) {
		ln, err := net.Listen(network, addr)
		return countingListener{ln, &read}, err
	}})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	r := bufio.NewReader(conn)
	if greet, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(greet, "220 ") {
		conn.Close()
		t.Fatalf("greeting %q, %v", greet, err)
	}
	// The write blocks once the server stops reading; closing the
	// connection ends it.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		conn.Write(append([]byte("NOOP "), bytes.Repeat([]byte("x"), 1<<20)...))
	}()
	defer func() { conn.Close(); <-wrote }()
	if got, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(got, "500 ") {
		t.Fatalf("reply to a 1 MiB command line: %q, %v; want 500", got, err)
	}
	if rest, err := r.ReadString('\n'); err == nil {
		t.Fatalf("session still open after the refusal: %q", rest)
	}
	if limit := int64(maxControlLine + 4096); read.Load() > limit {
		t.Fatalf("server read %d bytes of the line, want <= %d", read.Load(), limit)
	}
}
