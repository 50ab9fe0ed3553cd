package gridftp

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// refReadReply is the reply parser readReply replaced, one ReadString
// per line: the reference FuzzReadReply holds it to. digits reports
// whether every line it parsed began with three ASCII digits; strconv.Atoi
// also takes a sign ("+12", "-12"), which readReply refuses.
func refReadReply(r *bufio.Reader) (rep Reply, digits bool, err error) {
	digits = true
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return rep, digits, err
		}
		line = strings.TrimRight(line, "\r\n")
		if len(line) < 4 {
			return rep, digits, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		code, err := strconv.Atoi(line[:3])
		if err != nil {
			return rep, digits, fmt.Errorf("gridftp: malformed reply %q", line)
		}
		digits = digits && strings.Trim(line[:3], "0123456789") == ""
		rep.Code = code
		switch line[3] {
		case ' ':
			rep.Text = line[4:]
			return rep, digits, nil
		case '-':
			rep.Lines = append(rep.Lines, line[4:])
		default:
			return rep, digits, fmt.Errorf("gridftp: malformed reply %q", line)
		}
	}
}

// FuzzReadReply holds readReply to refReadReply on an arbitrary reply
// stream, read through the smallest bufio buffer (so most lines outgrow
// it) and the default one. Reply by reply, both must accept with the
// same Code, Text and Lines, or both fail with the same error; the one
// divergence allowed is a reply with a signed code, which readReply
// alone refuses, as malformed. The texts handed out earlier must still
// read the same at the end: a text interned as a view of the read
// buffer would be overwritten by later lines.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, size := range []int{16, 4096} {
			c := &Client{r: bufio.NewReaderSize(bytes.NewReader(data), size)}
			ref := bufio.NewReader(bytes.NewReader(data))
			var got, want []Reply
			for {
				rep, err := c.readReply()
				wrep, digits, werr := refReadReply(ref)
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
