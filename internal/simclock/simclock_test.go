package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunOrdering(t *testing.T) {
	e := New()
	var got []int
	e.MustAt(3, func() { got = append(got, 3) })
	e.MustAt(1, func() { got = append(got, 1) })
	e.MustAt(2, func() { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run executed %d events, want 3", n)
	}
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v, want 3", e.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.MustAt(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", got)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := New()
	e.MustAt(10, func() {})
	e.Run()
	if err := e.At(5, func() {}); err == nil {
		t.Error("At(past) should fail")
	}
	if err := e.After(-1, func() {}); err == nil {
		t.Error("After(negative) should fail")
	}
	if err := e.At(10, nil); err == nil {
		t.Error("At(nil fn) should fail")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := New()
	var got []string
	e.MustAt(1, func() {
		got = append(got, "a")
		e.MustAfter(1, func() { got = append(got, "b") })
		e.MustAt(e.Now(), func() { got = append(got, "a2") }) // same instant
	})
	e.Run()
	want := []string{"a", "a2", "b"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	fired := 0
	e.MustAt(1, func() { fired++ })
	e.MustAt(2, func() { fired++ })
	e.MustAt(10, func() { fired++ })
	n := e.RunUntil(5)
	if n != 2 || fired != 2 {
		t.Fatalf("RunUntil fired %d events, want 2", fired)
	}
	if e.Now() != 5 {
		t.Errorf("Now = %v, want 5 (clock advances to deadline)", e.Now())
	}
	if len(e.heap) != 1 {
		t.Errorf("pending events = %d, want 1", len(e.heap))
	}
	e.Run()
	if fired != 3 {
		t.Errorf("remaining event did not fire")
	}
}

func TestStop(t *testing.T) {
	e := New()
	fired := 0
	e.MustAt(1, func() { fired++; e.Stop() })
	e.MustAt(2, func() { fired++ })
	e.Run()
	if fired != 1 {
		t.Fatalf("Stop did not halt the run; fired=%d", fired)
	}
	if len(e.heap) != 1 {
		t.Errorf("pending events = %d, want 1", len(e.heap))
	}
}

func TestReentrantRunPanics(t *testing.T) {
	e := New()
	e.MustAt(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("reentrant Run should panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []Time
	tk, err := Tick(e, 30, func(now Time) { ticks = append(ticks, now) })
	if err != nil {
		t.Fatal(err)
	}
	e.RunUntil(100)
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks, want 3 (at 30, 60, 90): %v", len(ticks), ticks)
	}
	for i, want := range []Time{30, 60, 90} {
		if ticks[i] != want {
			t.Errorf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
	tk.Cancel()
	before := len(ticks)
	e.RunUntil(200)
	if len(ticks) != before {
		t.Error("ticker kept firing after Cancel")
	}
}

func TestTickerCancelFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk, _ = Tick(e, 1, func(Time) {
		count++
		if count == 2 {
			tk.Cancel()
		}
	})
	e.RunUntil(100)
	if count != 2 {
		t.Errorf("ticks = %d, want 2", count)
	}
}

func TestTickerBadInterval(t *testing.T) {
	if _, err := Tick(New(), 0, func(Time) {}); err == nil {
		t.Error("zero interval should fail")
	}
}

// Property: for any set of scheduled times, events fire in sorted order and
// the final clock equals the max time.
func TestHeapOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := New()
		var fired []Time
		times := make([]float64, len(raw))
		for i, r := range raw {
			at := Time(r)
			times[i] = float64(at)
			e.MustAt(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		sort.Float64s(times)
		if len(fired) != len(times) {
			return false
		}
		for i := range fired {
			if float64(fired[i]) != times[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
