package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSlotBuildsOncePerSeed: callers that ask for one seed at once share
// one build and get the same value.
func TestSlotBuildsOncePerSeed(t *testing.T) {
	var builds atomic.Int64
	s := slot[*int64]{build: func(seed int64) (*int64, error) {
		builds.Add(1)
		return &seed, nil
	}}
	got := make([]*int64, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = s.at(7)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent callers ran %d builds, want 1", len(got), n)
	}
	for _, p := range got {
		if p != got[0] || *p != 7 {
			t.Fatal("concurrent callers at one seed got different values")
		}
	}
}

// TestSlotCachesAndReplaces: a repeated seed gets the held value without
// a build, a new seed's value replaces it, and a return to the first seed
// builds afresh because the slot holds one seed only.
func TestSlotCachesAndReplaces(t *testing.T) {
	var builds atomic.Int64
	s := slot[*int64]{build: func(seed int64) (*int64, error) {
		builds.Add(1)
		return &seed, nil
	}}
	first, _ := s.at(1)
	if again, _ := s.at(1); again != first || *again != 1 {
		t.Fatal("a repeated seed 1 did not get the held value")
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds after seeds 1, 1; want 1", n)
	}
	if v, _ := s.at(2); *v != 2 {
		t.Fatalf("seed 2 read %d, want 2", *v)
	}
	if v, _ := s.at(2); *v != 2 {
		t.Fatalf("a repeated seed 2 read %d, want 2", *v)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds after seeds 1, 1, 2, 2; want 2", n)
	}
	if back, _ := s.at(1); back == first || *back != 1 {
		t.Fatal("a return to seed 1 got the replaced value, want a fresh build")
	}
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds after a return to seed 1; want 3 (one seed held)", n)
	}
}

// TestSlotNewSeedReplaces: a call at a new seed replaces the slot's
// value without waiting for the old seed's build, and a caller already
// holding the old seed still gets that seed's value. The slot then
// holds only the new seed.
func TestSlotNewSeedReplaces(t *testing.T) {
	var builds atomic.Int64
	entered, release := make(chan struct{}), make(chan struct{})
	s := slot[int64]{build: func(seed int64) (int64, error) {
		if builds.Add(1) == 1 {
			close(entered)
			<-release
		}
		return 10 * seed, nil
	}}
	old := make(chan int64)
	go func() {
		v, _ := s.at(1)
		old <- v
	}()
	<-entered
	if v, _ := s.at(2); v != 20 {
		t.Fatalf("seed 2 read %d, want 20", v)
	}
	close(release)
	if v := <-old; v != 10 {
		t.Fatalf("the seed-1 caller read %d after the slot moved to seed 2, want 10", v)
	}
	s.at(2)
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds after seeds 1, 2, 2; want 2", n)
	}
	s.at(1)
	if n := builds.Load(); n != 3 {
		t.Fatalf("%d builds after a return to seed 1; want 3 (one seed held)", n)
	}
}

// TestSlotErrorPerSeed: a failed build is kept like a value, so every
// caller at that seed gets its error from one build, and the next seed
// builds afresh.
func TestSlotErrorPerSeed(t *testing.T) {
	fail := errors.New("no such input")
	var builds atomic.Int64
	s := slot[int]{build: func(seed int64) (int, error) {
		builds.Add(1)
		if seed == 3 {
			return 0, fmt.Errorf("seed %d: %w", seed, fail)
		}
		return 1, nil
	}}
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = s.at(3)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if !errors.Is(err, fail) || err != errs[0] {
			t.Fatalf("caller at seed 3 got %v, want the one build's error %v", err, errs[0])
		}
	}
	if v, err := s.at(4); err != nil || v != 1 {
		t.Fatalf("seed 4 after a failed seed 3: %d, %v", v, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for seeds 3 (x%d) and 4, want 2", n, len(errs))
	}
}

// TestRunAllSharesInputs runs every exhibit at seed 42 on a wide worker
// pool from empty slots: each input is built once, however many
// exhibits read it at once, and a later call at that seed gets the same
// value — the ORNL campaign behind Tables X–XIII is not replayed.
func TestRunAllSharesInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit suite is slow")
	}
	builds := map[string]*atomic.Int64{
		"ncar":       countBuilds(t, &ncarData),
		"slac":       countBuilds(t, &slacData),
		"anl":        countBuilds(t, &anlTransfers),
		"ornl":       countBuilds(t, &ornlRecords),
		"ncar-large": countBuilds(t, &ncarLarge),
		"campaign":   countBuilds(t, &campaigns),
	}
	if _, err := RunAll(IDs(), 42, 2*runtime.GOMAXPROCS(0)); err != nil {
		t.Fatal(err)
	}
	camp, err := campaigns.at(42)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := campaigns.at(42); again != camp {
		t.Error("a repeated seed did not reuse its campaign")
	}
	for name, n := range builds {
		if n.Load() != 1 {
			t.Errorf("%s built %d times in one RunAll, want 1", name, n.Load())
		}
	}
}

// countBuilds empties s and counts its builds until the test ends.
func countBuilds[V any](t *testing.T, s *slot[V]) *atomic.Int64 {
	var n atomic.Int64
	build := s.build
	s.mu.Lock()
	s.value = nil
	s.build = func(seed int64) (V, error) {
		n.Add(1)
		return build(seed)
	}
	s.mu.Unlock()
	t.Cleanup(func() {
		s.mu.Lock()
		s.build = build
		s.mu.Unlock()
	})
	return &n
}
