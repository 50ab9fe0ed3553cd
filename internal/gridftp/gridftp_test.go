package gridftp

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"gftpvc/internal/usagestats"
)

// startServer launches a loopback server with the given store and options.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Store == nil {
		cfg.Store = NewMemStore()
	}
	s, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func login(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Login("anonymous", "test@"); err != nil {
		t.Fatal(err)
	}
	return c
}

func randomPayload(n int) []byte {
	rng := rand.New(rand.NewSource(99))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve(Config{}); err == nil {
		t.Error("nil store should fail")
	}
	if _, err := Serve(Config{Store: NewMemStore(), Stripes: -1}); err == nil {
		t.Error("negative stripes should fail")
	}
	if _, err := Serve(Config{Store: NewMemStore(), BlockSize: -1}); err == nil {
		t.Error("negative block size should fail")
	}
	if _, err := Serve(Config{Store: NewMemStore(), WindowSize: -1}); err == nil {
		t.Error("negative window size should fail: there is no unwindowed STOR to fall back to")
	}
	// Embedding the interface strips MemStore's streaming methods.
	if _, err := Serve(Config{Store: struct{ Store }{NewMemStore()}}); err == nil {
		t.Error("a store without ReaderAtStore/StreamPutter should fail")
	}
}

func TestRetrSingleStream(t *testing.T) {
	store := NewMemStore()
	want := randomPayload(1 << 20)
	store.Put("data.bin", want)
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	got, stats, err := c.Retr("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted in transfer")
	}
	if stats.Streams != 1 || stats.Stripes != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Bytes != int64(len(want)) {
		t.Errorf("stats.Bytes = %d, want %d", stats.Bytes, len(want))
	}
}

func TestRetrParallelStreams(t *testing.T) {
	store := NewMemStore()
	want := randomPayload(3<<20 + 12345) // non-multiple of block size
	store.Put("data.bin", want)
	s := startServer(t, Config{Store: store, BlockSize: 64 << 10})
	c := login(t, s.Addr())
	if err := c.SetParallelism(8); err != nil {
		t.Fatal(err)
	}
	got, stats, err := c.Retr("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted with 8 parallel streams")
	}
	if stats.Streams != 8 {
		t.Errorf("streams = %d, want 8", stats.Streams)
	}
	// The server log must record the parallelism.
	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("server logged %d records, want 1", len(recs))
	}
	if recs[0].Streams != 8 || recs[0].Type != usagestats.Retrieve {
		t.Errorf("record = %+v", recs[0])
	}
}

func TestRetrStriped(t *testing.T) {
	store := NewMemStore()
	want := randomPayload(2<<20 + 777)
	store.Put("data.bin", want)
	s := startServer(t, Config{Store: store, Stripes: 4, BlockSize: 32 << 10})
	c := login(t, s.Addr())
	got, stats, err := c.RetrStriped("data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted in striped transfer")
	}
	if stats.Stripes != 4 {
		t.Errorf("stripes = %d, want 4", stats.Stripes)
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Stripes != 4 {
		t.Errorf("server records = %+v", recs)
	}
}

func TestStorRoundTrip(t *testing.T) {
	store := NewMemStore()
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	if err := c.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	want := randomPayload(1<<20 + 99)
	stats, err := c.Stor("up.bin", want)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64(len(want)) {
		t.Errorf("stats.Bytes = %d", stats.Bytes)
	}
	got, err := store.Get("up.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored payload corrupted")
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Type != usagestats.Store {
		t.Errorf("records = %+v", recs)
	}
}

func TestStorStriped(t *testing.T) {
	store := NewMemStore()
	s := startServer(t, Config{Store: store, Stripes: 3, BlockSize: 32 << 10})
	c := login(t, s.Addr())
	want := randomPayload(1<<20 + 4321)
	stats, err := c.StorStriped("up.bin", want)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stripes != 3 {
		t.Errorf("stripes = %d, want 3", stats.Stripes)
	}
	got, err := store.Get("up.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("striped upload corrupted")
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Stripes != 3 || recs[0].Type != usagestats.Store {
		t.Errorf("records = %+v", recs)
	}
}

func TestRetrMissingObject(t *testing.T) {
	s := startServer(t, Config{})
	c := login(t, s.Addr())
	_, _, err := c.Retr("missing.bin")
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want ProtocolError", err)
	}
	if pe.Reply.Code != 550 {
		t.Errorf("code = %d, want 550", pe.Reply.Code)
	}
}

func TestAuthRequired(t *testing.T) {
	s := startServer(t, Config{
		Auth: func(user, pass string) bool { return user == "alice" && pass == "s3cret" },
	})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("alice", "wrong"); err == nil {
		t.Fatal("bad password should fail")
	}
	// Commands before auth are rejected.
	if _, err := c.Size("x"); err == nil {
		t.Fatal("unauthenticated SIZE should fail")
	}
	c2, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Login("alice", "s3cret"); err != nil {
		t.Fatalf("valid login rejected: %v", err)
	}
}

func TestTransferRequiresModeE(t *testing.T) {
	store := NewMemStore()
	store.Put("x", []byte("hello"))
	s := startServer(t, Config{Store: store})
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Log in without MODE E.
	if _, err := c.do("USER", "USER u", 331); err != nil {
		t.Fatal(err)
	}
	if _, err := c.do("PASS", "PASS p", 230); err != nil {
		t.Fatal(err)
	}
	if _, err := c.do("TYPE", "TYPE I", 200); err != nil {
		t.Fatal(err)
	}
	rep, err := c.cmd("RETR x")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 504 {
		t.Errorf("RETR without MODE E: code = %d, want 504", rep.Code)
	}
}

func TestFeatures(t *testing.T) {
	s := startServer(t, Config{})
	c := login(t, s.Addr())
	feats, err := c.Features()
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, f := range feats {
		joined += f + "\n"
	}
	for _, want := range []string{"PARALLEL", "SPAS", "MODE E"} {
		if !bytes.Contains([]byte(joined), []byte(want)) {
			t.Errorf("FEAT missing %q in %q", want, joined)
		}
	}
}

func TestSizeAndSetBuffer(t *testing.T) {
	store := NewMemStore()
	store.Put("x", make([]byte, 12345))
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	n, err := c.Size("x")
	if err != nil || n != 12345 {
		t.Errorf("Size = %d, %v; want 12345", n, err)
	}
	if _, err := c.Size("nope"); err == nil {
		t.Error("missing object SIZE should fail")
	}
	if err := c.SetBuffer(4 << 20); err != nil {
		t.Fatal(err)
	}
	want := randomPayload(4096)
	store.Put("y", want)
	if _, _, err := c.Retr("y"); err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if recs[len(recs)-1].BufferBytes != 4<<20 {
		t.Errorf("buffer not recorded: %+v", recs[len(recs)-1])
	}
}

func TestSetParallelismValidation(t *testing.T) {
	s := startServer(t, Config{})
	c := login(t, s.Addr())
	if err := c.SetParallelism(0); err == nil {
		t.Error("parallelism 0 should fail client-side")
	}
	if err := c.SetParallelism(65); err == nil {
		t.Error("parallelism 65 should fail client-side")
	}
}

func TestThirdPartyTransfer(t *testing.T) {
	srcStore := NewMemStore()
	want := randomPayload(1 << 20)
	srcStore.Put("src.bin", want)
	dstStore := NewMemStore()
	src := startServer(t, Config{Store: srcStore})
	dst := startServer(t, Config{Store: dstStore})
	cSrc := login(t, src.Addr())
	cDst := login(t, dst.Addr())
	if err := ThirdParty(cSrc, cDst, "src.bin", "dst.bin"); err != nil {
		t.Fatal(err)
	}
	got, err := dstStore.Get("dst.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("third-party payload corrupted")
	}
	// Both servers logged their side.
	if rs := src.Records(); len(rs) != 1 || rs[0].Type != usagestats.Retrieve {
		t.Errorf("src records = %+v", rs)
	}
	if rs := dst.Records(); len(rs) != 1 || rs[0].Type != usagestats.Store {
		t.Errorf("dst records = %+v", rs)
	}
}

func TestUsageStatsCollection(t *testing.T) {
	col, err := usagestats.NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	store := NewMemStore()
	store.Put("x", randomPayload(64<<10))
	s := startServer(t, Config{Store: store, UsageAddr: col.Addr(), ServerHost: "dtn.example.org"})
	c := login(t, s.Addr())
	if _, _, err := c.Retr("x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rs := col.Records(); len(rs) == 1 {
			if rs[0].ServerHost != "dtn.example.org" {
				t.Errorf("collected host = %q", rs[0].ServerHost)
			}
			if rs[0].RemoteHost != "" {
				t.Error("collector must anonymize the remote host")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("usage packet never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLocalLogWriter(t *testing.T) {
	var buf bytes.Buffer
	store := NewMemStore()
	store.Put("x", randomPayload(4096))
	s := startServer(t, Config{Store: store, LogWriter: &buf})
	c := login(t, s.Addr())
	if _, _, err := c.Retr("x"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	recs, err := usagestats.ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("log has %d records, want 1", len(recs))
	}
	// Local logs keep the remote endpoint (unlike the central collector).
	if recs[0].RemoteHost == "" {
		t.Error("local log should keep the remote host")
	}
}

func TestSessionOfBackToBackTransfers(t *testing.T) {
	// A session in the paper's sense: many files over one control channel.
	store := NewMemStore()
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		store.Put(name, randomPayload(32<<10))
	}
	s := startServer(t, Config{Store: store})
	c := login(t, s.Addr())
	c.SetParallelism(2)
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		if _, _, err := c.Retr(name); err != nil {
			t.Fatalf("transfer %s: %v", name, err)
		}
	}
	recs := s.Records()
	if len(recs) != 5 {
		t.Fatalf("logged %d transfers, want 5", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start.Before(recs[i-1].Start) {
			t.Error("records out of order")
		}
	}
}

func TestUnknownCommand(t *testing.T) {
	s := startServer(t, Config{})
	c := login(t, s.Addr())
	rep, err := c.cmd("FROBNICATE now")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Code != 502 {
		t.Errorf("code = %d, want 502", rep.Code)
	}
}
