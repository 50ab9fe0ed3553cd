package gridftp

import (
	"bytes"
	"net"
	"regexp"
	"testing"
	"time"

	"gftpvc/internal/faultnet"
	"gftpvc/internal/telemetry"
)

// TestStripedOnOneStripeServer: SPAS on a default (one-stripe) server
// answers the 229 form the striped client engines parse, and the
// transfer takes one connection on that stripe whatever the client's
// parallelism.
func TestStripedOnOneStripeServer(t *testing.T) {
	var track faultnet.Tracker
	store := NewMemStore()
	want := randomPayload(300<<10 + 7)
	store.Put("data.bin", want)
	s := startServer(t, Config{Store: store, DataListen: track.Listen})
	c := login(t, s.Addr())
	if err := c.SetParallelism(3); err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.RetrStriped("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("striped retrieval from a one-stripe server corrupted")
	}
	if stats.Stripes != 1 {
		t.Errorf("retr stripes = %d, want 1", stats.Stripes)
	}
	if _, err := c.StorStriped("up.bin", want); err != nil {
		t.Fatal(err)
	}
	if back, _ := store.Get("up.bin"); !bytes.Equal(back, want) {
		t.Fatal("striped upload to a one-stripe server corrupted")
	}
	for i, rec := range s.Records() {
		if rec.Stripes != 1 || rec.Code != 0 {
			t.Errorf("record %d = %+v, want a successful one-stripe transfer", i, rec)
		}
	}
	if n := track.Open(); n != 0 {
		t.Errorf("%d data listeners still open", n)
	}
}

// TestPassiveWireCarriesNoToken pins the standard passive wire: PASV is
// exactly the 227 tuple, SPAS is a 229 whose lines carry addresses and
// nothing else, and PORT takes the tuple alone.
func TestPassiveWireCarriesNoToken(t *testing.T) {
	s := startServer(t, Config{Stripes: 3})
	c := login(t, s.Addr())
	tuple := `\d{1,3},\d{1,3},\d{1,3},\d{1,3},\d{1,3},\d{1,3}`
	rep, err := c.cmd("PASV")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 227 || !regexp.MustCompile(`^entering passive mode \(`+tuple+`\)$`).MatchString(rep.Text) {
		t.Errorf("PASV reply = %d %q", rep.Code, rep.Text)
	}
	rep, err = c.cmd("SPAS")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 229 || len(rep.Lines) != 4 || rep.Lines[0] != "Entering striped passive mode" {
		t.Fatalf("SPAS reply = %+v, want 229 with a header and 3 address lines", rep)
	}
	addr := regexp.MustCompile(`^ ` + tuple + `$`)
	for _, l := range rep.Lines[1:] {
		if !addr.MatchString(l) {
			t.Errorf("SPAS line %q is not a bare address", l)
		}
	}
	for _, arg := range []string{"127,0,0,1,4,210 00000000deadbeef", "127,0,0,1,4,210 x"} {
		if rep, err := c.cmd("PORT " + arg); err != nil || rep.Code != 501 {
			t.Errorf("PORT %s = %+v, %v; want 501", arg, rep, err)
		}
	}
	if rep, err := c.cmd("PORT 127,0,0,1,4,210"); err != nil || rep.Code != 200 {
		t.Errorf("PORT tuple = %+v, %v; want 200", rep, err)
	}
}

// TestPassiveOverIPv6ControlRefused: the h1,h2,h3,h4 encoding has no
// IPv6 form, so PASV and SPAS on an IPv6 control connection answer 425
// at once instead of advertising an address nobody listens on.
func TestPassiveOverIPv6ControlRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "[::1]:0")
	if err != nil {
		t.Skipf("IPv6 loopback unavailable: %v", err)
	}
	ln.Close()
	const accept = 2 * time.Second
	hub := telemetry.NewHub()
	s := startServer(t, Config{Addr: "[::1]:0", AcceptTimeout: accept, Telemetry: hub})
	c := login(t, s.Addr())
	for _, verb := range []string{"PASV", "SPAS"} {
		start := time.Now()
		rep, err := c.cmd(verb)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Code != 425 {
			t.Errorf("%s over IPv6 = %d %s, want 425", verb, rep.Code, rep.Text)
		}
		if d := time.Since(start); d > accept/4 {
			t.Errorf("%s took %v to refuse; AcceptTimeout is %v", verb, d, accept)
		}
	}
	if n := hub.Gauge("gridftp_server_passive_listeners_open",
		"Per-transfer passive data listeners currently open.").Value(); n != 0 {
		t.Errorf("passive listeners open = %d, want 0", n)
	}
}
