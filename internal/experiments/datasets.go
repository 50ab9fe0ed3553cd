package experiments

import (
	"sync"
	"time"

	"gftpvc/internal/sessions"
	"gftpvc/internal/usagestats"
	"gftpvc/internal/workload"
)

// Exhibit inputs. Synthesising them is the dominant cost of regenerating
// every exhibit (the SLAC–BNL log has 1,021,999 records), so each input
// kind is built once per seed and shared by every exhibit that reads it,
// serial or concurrent. Sharing is safe only because no exhibit mutates
// its inputs.
var (
	ncarData = slot[*dataset]{build: func(seed int64) (*dataset, error) {
		return newDataset(workload.NCARNICS(workload.Options{Seed: seed}))
	}}
	slacData = slot[*dataset]{build: func(seed int64) (*dataset, error) {
		return newDataset(workload.SLACBNL(workload.Options{Seed: seed}))
	}}
	anlTransfers = slot[[]workload.ANLTransfer]{build: workload.NERSCANL}
	ornlRecords  = slot[[]usagestats.Record]{build: func(seed int64) ([]usagestats.Record, error) {
		return workload.NERSCORNL32G(seed), nil
	}}
	ncarLarge = slot[ncarLargeSet]{build: func(seed int64) (ncarLargeSet, error) {
		t16, t4 := workload.NCARLargeTransfers(seed)
		return ncarLargeSet{t16: t16, t4: t4}, nil
	}}
	campaigns = slot[*ornlCampaign]{build: buildORNLCampaign}
)

// slot holds one seed's value of one input kind, built at most once
// however many callers ask for it at once. A call at another seed
// replaces the value rather than keeping both: no caller returns to an
// earlier seed, and a caller that already holds the old value keeps it
// until it lets go. The builders are deterministic in their seed, so an
// error is kept like a value: a retry at that seed would fail the same
// way.
type slot[V any] struct {
	build func(seed int64) (V, error)

	mu    sync.Mutex
	seed  int64
	value func() (V, error) // nil until the first call
}

// at returns the slot's value for seed, building it on first use.
func (s *slot[V]) at(seed int64) (V, error) {
	s.mu.Lock()
	if s.value == nil || s.seed != seed {
		build := s.build
		s.seed, s.value = seed, sync.OnceValues(func() (V, error) { return build(seed) })
	}
	value := s.value
	s.mu.Unlock()
	return value()
}

// reading makes the Runner of an exhibit that reads one input kind: the
// exhibit gets the seed's value of s.
func reading[V any](s *slot[V], exhibit func(V) (Result, error)) Runner {
	return func(seed int64) (Result, error) {
		v, err := s.at(seed)
		if err != nil {
			return nil, err
		}
		return exhibit(v)
	}
}

// gaps are the session gaps g the exhibits group a dataset at: Tables
// III and IV read all three, Tables I and II the one-minute grouping.
var gaps = []time.Duration{0, time.Minute, 2 * time.Minute}

// dataset is a synthesised path log with one copy of its records in
// sessions.ByPair's order, made on first use and kept as long as the
// dataset is: the sessions of every gap are views into that one copy.
// Beside it, streams holds the log's 1- and 8-stream split (streamGroup).
type dataset struct {
	*workload.Dataset
	byPair  func() ([]usagestats.Record, error)
	streams func() (one, eight [2][]float64)
}

func newDataset(ds *workload.Dataset, err error) (*dataset, error) {
	if err != nil {
		return nil, err
	}
	return &dataset{Dataset: ds, byPair: sync.OnceValues(func() ([]usagestats.Record, error) {
		return sessions.ByPair(ds.Records)
	}), streams: sync.OnceValues(func() (one, eight [2][]float64) {
		return streamGroup(ds.Records, 1), streamGroup(ds.Records, 8)
	})}, nil
}

// grouped returns the dataset's sessions at gap g.
func (d *dataset) grouped(g time.Duration) ([]*sessions.Session, error) {
	c, err := d.byPair()
	if err != nil {
		return nil, err
	}
	return sessions.Cut(c, g)
}

type ncarLargeSet struct {
	t16, t4 []workload.LargeTransfer
}
