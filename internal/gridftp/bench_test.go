package gridftp

import "testing"

// benchRetr measures end-to-end loopback transfer throughput for a given
// stream count; b.SetBytes makes `go test -bench` report MB/s.
func benchRetr(b *testing.B, streams int, size int) {
	store := NewMemStore()
	payload := randomPayload(size)
	store.Put("bench.bin", payload)
	s, err := Serve(Config{Addr: "127.0.0.1:0", Store: store, BlockSize: 256 << 10})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(s.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("u", "p"); err != nil {
		b.Fatal(err)
	}
	if err := c.SetParallelism(streams); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, _, err := c.Retr("bench.bin")
		if err != nil {
			b.Fatal(err)
		}
		if len(data) != size {
			b.Fatal("short read")
		}
	}
}

func BenchmarkRetr1Stream(b *testing.B) { benchRetr(b, 1, 8<<20) }
func BenchmarkRetr8Stream(b *testing.B) { benchRetr(b, 8, 8<<20) }
