package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"testing"

	"gftpvc/internal/telemetry"
)

// lastOp is the op of the last transfer span a client hub ended.
func lastOp(hub *telemetry.Hub) string {
	spans := hub.Spans().Snapshot()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].Op != "session" {
			return spans[i].Op
		}
	}
	return ""
}

// commandsTotal sums gridftp_server_commands_total over its verbs.
func commandsTotal(t *testing.T, hub *telemetry.Hub) int64 {
	t.Helper()
	var prom bytes.Buffer
	if err := hub.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	var total int64
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "gridftp_server_commands_total{"); ok {
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
	}
	return total
}

// TestRegionMatrix runs every Region shape the two transfer calls take
// against a 3-stripe server: each retrieval over PASV at 1 and 3
// streams and over SPAS delivers the store's slice under the op label
// its Region names, each store (whole or REST) leaves the payload, and
// a Region that is not one fails before anything reaches the wire.
func TestRegionMatrix(t *testing.T) {
	const size = 1<<20 + 13
	payload := randomPayload(size)
	store := NewMemStore()
	store.Put("obj", payload)
	shub := telemetry.NewHub()
	s := startServer(t, Config{Store: store, Stripes: 3, BlockSize: 16 << 10, Telemetry: shub})
	chub := telemetry.NewHub()
	c := loginStream(t, s.Addr(), WithTelemetry(chub))
	ctx := context.Background()

	paths := []struct {
		name    string
		streams int
		striped bool
	}{{"pasv-1", 1, false}, {"pasv-3", 3, false}, {"spas", 3, true}}

	t.Run("retrieve", func(t *testing.T) {
		for _, tc := range []struct {
			name       string
			at         Region
			op, spasOp string
		}{
			{"whole", Region{}, "retr", "retr_striped"},
			{"offset", Region{Offset: 1000}, "rest_retr", "rest_retr"},
			{"offset+length", Region{Offset: 1000, Length: 100_000}, "eret", "eret"},
			{"length 1", Region{Length: 1}, "eret", "eret"},
			{"last byte", Region{Offset: size - 1}, "rest_retr", "rest_retr"},
		} {
			for _, p := range paths {
				t.Run(tc.name+"/"+p.name, func(t *testing.T) {
					if err := c.SetParallelism(p.streams); err != nil {
						t.Fatal(err)
					}
					at, op := tc.at, tc.op
					if p.striped {
						at.Striped, op = true, tc.spasOp
					}
					var got bytes.Buffer
					if _, err := c.RetrToAt(ctx, "obj", &got, at); err != nil {
						t.Fatal(err)
					}
					end := int64(size)
					if at.Length > 0 {
						end = at.Offset + at.Length
					}
					if !bytes.Equal(got.Bytes(), payload[at.Offset:end]) {
						t.Fatalf("%+v delivered %d bytes that differ from the store's [%d, %d)", at, got.Len(), at.Offset, end)
					}
					if got := lastOp(chub); got != op {
						t.Fatalf("%+v ran as op %q, want %q", at, got, op)
					}
				})
			}
		}
	})

	t.Run("store", func(t *testing.T) {
		const cut = 300_001
		for _, tc := range []struct {
			name       string
			offset     int64
			op, spasOp string
		}{
			{"whole", 0, "stor", "stor_striped"},
			{"offset", cut, "rest_stor", "rest_stor"},
		} {
			for _, p := range []struct {
				name    string
				striped bool
			}{{"pasv", false}, {"spas", true}} {
				t.Run(tc.name+"/"+p.name, func(t *testing.T) {
					if err := c.SetParallelism(3); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("up-%s-%s", tc.name, p.name)
					if tc.offset > 0 {
						store.Put(name, payload[:tc.offset])
					}
					op := tc.op
					if p.striped {
						op = tc.spasOp
					}
					at := Region{Offset: tc.offset, Striped: p.striped}
					if _, err := c.StorFromAt(ctx, name, bytes.NewReader(payload[tc.offset:]), at); err != nil {
						t.Fatal(err)
					}
					if got, err := store.Get(name); err != nil || !bytes.Equal(got, payload) {
						t.Fatalf("%+v: stored object differs from the payload (err %v)", at, err)
					}
					if got := lastOp(chub); got != op {
						t.Fatalf("%+v ran as op %q, want %q", at, got, op)
					}
				})
			}
		}
	})

	t.Run("invalid", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			run  func() error
		}{
			{"retrieve negative length", func() error {
				_, err := c.RetrToAt(ctx, "obj", io.Discard, Region{Offset: 10, Length: -1})
				return err
			}},
			{"store with length", func() error {
				_, err := c.StorFromAt(ctx, "up", bytes.NewReader(payload), Region{Length: 5})
				return err
			}},
			{"striped store with length", func() error {
				_, err := c.StorFromAt(ctx, "up", bytes.NewReader(payload), Region{Offset: 10, Length: 5, Striped: true})
				return err
			}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				before := commandsTotal(t, shub)
				if before == 0 {
					t.Fatal("the server counted no commands, so none can be missed")
				}
				if err := tc.run(); err == nil {
					t.Fatal("an invalid Region was accepted")
				}
				if after := commandsTotal(t, shub); after != before {
					t.Fatalf("the server counted %d commands for an invalid Region, want 0", after-before)
				}
				if c.Desynced() {
					t.Fatal("an invalid Region desynced the client")
				}
			})
		}
		if err := c.Noop(); err != nil {
			t.Fatalf("the session is unusable after invalid Regions: %v", err)
		}
	})
}
