package main

import (
	"math"
	"testing"

	"gftpvc/internal/gridftp"
)

// TestResidualIsSelfTime: with one op and one category, the residual is
// the op's duration minus the union of its children.
func TestResidualIsSelfTime(t *testing.T) {
	op := []interval{{100, 200}}
	for _, c := range []struct {
		name     string
		children []interval
		self     float64 // of the op's 100 ns
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping count once", []interval{{110, 150}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"touching", []interval{{110, 120}, {120, 130}}, 80},
		{"clipped to the op", []interval{{50, 110}, {190, 300}}, 80},
		{"outside the op", []interval{{0, 50}, {250, 300}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}, {115, 155}}, 40},
		{"covering", []interval{{0, 300}}, 0},
	} {
		var busy [nCategories][]interval
		busy[catStore] = c.children
		share, residual := shares(op, busy)
		if math.Abs(residual-c.self/100) > 1e-12 || math.Abs(share[catStore]+residual-1) > 1e-12 {
			t.Errorf("%s: residual %g and store share %g, want %g and the rest", c.name, residual, share[catStore], c.self/100)
		}
	}
}

func TestSharesPartitionInFlightTimeByPriority(t *testing.T) {
	// Two ops, 0-100 and 200-300; the gap between them belongs to nobody.
	ops := []interval{{0, 100}, {200, 300}}
	var busy [nCategories][]interval
	busy[catStore] = []interval{{10, 30}}                 // 20
	busy[catSink] = []interval{{20, 50}}                  // 30, of which 10 under store
	busy[catConnData] = []interval{{0, 60}, {90, 220}}    // 60-40=20 in op 1, +10, +20 in op 2
	busy[catConnCtrl] = []interval{{95, 100}, {280, 300}} // first hidden by conn_data; 20
	share, residual := shares(ops, busy)
	want := [nCategories]float64{catStore: 0.10, catSink: 0.10, catConnData: 0.25, catConnCtrl: 0.10}
	sum := residual
	for c := range share {
		if math.Abs(share[c]-want[c]) > 1e-12 {
			t.Errorf("%s share %g, want %g", categoryNames[c], share[c], want[c])
		}
		sum += share[c]
	}
	if math.Abs(residual-0.45) > 1e-12 {
		t.Errorf("residual %g, want 0.45", residual)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares and residual sum to %g, want 1", sum)
	}
}

func TestMisfitsFindsChildOutsideItsOp(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: -1, Name: "run", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Op: 0, Name: "client.retr_to", Start: 100, End: 200},
		{ID: 3, Parent: 2, Op: 0, Name: "store.read_at", Start: 110, End: 120},
		{ID: 4, Parent: 1, Op: -1, Name: "conn.data.server", Start: 90, End: 210}, // child of the run, not of an op
	}
	if n := misfits(spans); n != 0 {
		t.Fatalf("misfits = %d on a well-formed trace", n)
	}
	spans = append(spans, span{ID: 5, Parent: 2, Op: 0, Name: "sink.write", Start: 190, End: 201})
	if n := misfits(spans); n != 1 {
		t.Fatalf("misfits = %d, want 1", n)
	}
}

// TestStoreWrapperKeepsTheCapabilitySet: the server chooses its RETR
// source and STOR engine by type assertion, so the tracing wrapper must
// satisfy exactly the optional interfaces of the store it wraps.
func TestStoreWrapperKeepsTheCapabilitySet(t *testing.T) {
	dir, err := gridftp.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := gridftp.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := gridftp.NewTieredStore(cold, gridftp.TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	caps := func(s gridftp.Store) [4]bool {
		_, ra := s.(gridftp.ReaderAtStore)
		_, sn := s.(gridftp.SnapshotStore)
		_, sp := s.(gridftp.StreamPutter)
		_, ab := s.(gridftp.PutAborter)
		return [4]bool{ra, sn, sp, ab}
	}
	tr := newTracer()
	for name, s := range map[string]gridftp.Store{
		"MemStore":       gridftp.NewMemStore(),
		"DirStore":       dir,
		"TieredStore":    tiered,
		"SyntheticStore": &gridftp.SyntheticStore{ObjectSize: 1 << 20},
	} {
		wrapped, err := tr.wrapStore(s)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got, want := caps(wrapped), caps(s); got != want {
			t.Errorf("%s: wrapper has {ReaderAt, Snapshot, StreamPutter, PutAborter} = %v, the store has %v", name, got, want)
		}
	}
	// A capability set no store of the repo has is refused, not approximated.
	if _, err := tr.wrapStore(readerAtOnly{gridftp.NewMemStore()}); err == nil {
		t.Error("a store with an unknown capability set was wrapped")
	}
}

// readerAtOnly is a Store with ReadObjectAt and nothing else optional.
type readerAtOnly struct{ m *gridftp.MemStore }

func (r readerAtOnly) Get(name string) ([]byte, error)      { return r.m.Get(name) }
func (r readerAtOnly) Put(name string, data []byte) error   { return r.m.Put(name, data) }
func (r readerAtOnly) Size(name string) (int64, error)      { return r.m.Size(name) }
func (r readerAtOnly) List(prefix string) ([]string, error) { return r.m.List(prefix) }
func (r readerAtOnly) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	return r.m.ReadObjectAt(name, p, off)
}
