// Package simclock implements a deterministic discrete-event simulation
// engine: a virtual clock and an event queue with stable FIFO ordering for
// simultaneous events. It is the substrate under the WAN simulator
// (internal/netsim) and the OSCARS circuit scheduler (internal/oscars).
//
// Virtual time is a float64 number of seconds from the simulation epoch.
// Determinism: two events scheduled for the same instant fire in the order
// they were scheduled, regardless of map iteration or goroutine scheduling
// (the engine is single-goroutine by design).
package simclock

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since the simulation epoch.
type Time float64

// Duration is a span of virtual time in seconds.
type Duration float64

// Common durations.
const (
	Millisecond Duration = 1e-3
	Second      Duration = 1
	Minute      Duration = 60
	Hour        Duration = 3600
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("t=%.3fs", float64(t)) }

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; construct with New.
type Engine struct {
	now     Time
	seq     uint64
	heap    []*event
	running bool
	stopped bool
}

// New returns an engine whose clock starts at 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// ErrPast is returned when an event is scheduled before the current time.
var ErrPast = errors.New("simclock: cannot schedule event in the past")

// At schedules fn to run at the absolute virtual time at. Scheduling at the
// current instant is allowed (the event runs after already-queued events
// for that instant).
func (e *Engine) At(at Time, fn func()) error {
	if at < e.now {
		return fmt.Errorf("%w: at %v, now %v", ErrPast, at, e.now)
	}
	if fn == nil {
		return errors.New("simclock: nil event function")
	}
	e.seq++
	e.push(&event{at: at, seq: e.seq, fn: fn})
	return nil
}

// After schedules fn to run d seconds from now. Negative d is an error.
func (e *Engine) After(d Duration, fn func()) error {
	if d < 0 {
		return fmt.Errorf("%w: delay %v", ErrPast, d)
	}
	return e.At(e.now.Add(d), fn)
}

// MustAt is At but panics on error; for simulation setup code where a
// past-time schedule is a programming error.
func (e *Engine) MustAt(at Time, fn func()) {
	if err := e.At(at, fn); err != nil {
		panic(err)
	}
}

// MustAfter is After but panics on error.
func (e *Engine) MustAfter(d Duration, fn func()) {
	if err := e.After(d, fn); err != nil {
		panic(err)
	}
}

// Stop makes the currently executing Run/RunUntil return after the current
// event completes. Queued events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called. It returns
// the number of events executed.
func (e *Engine) Run() int { return e.run(Time(math.Inf(1))) }

// RunUntil executes events with time <= deadline, then advances the clock
// to the deadline (even if no event fired exactly there). It returns the
// number of events executed.
func (e *Engine) RunUntil(deadline Time) int {
	n := e.run(deadline)
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return n
}

func (e *Engine) run(deadline Time) int {
	if e.running {
		panic("simclock: Run called reentrantly from within an event")
	}
	e.running = true
	e.stopped = false
	defer func() { e.running = false }()
	count := 0
	for len(e.heap) > 0 && !e.stopped {
		next := e.heap[0]
		if next.at > deadline {
			break
		}
		e.pop()
		e.now = next.at
		next.fn()
		count++
	}
	return count
}

// binary heap ordered by (at, seq).

func (e *Engine) less(i, j int) bool {
	a, b := e.heap[i], e.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) push(ev *event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *Engine) pop() *event {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[last] = nil
	e.heap = e.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(e.heap) && e.less(l, smallest) {
			smallest = l
		}
		if r < len(e.heap) && e.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.heap[i], e.heap[smallest] = e.heap[smallest], e.heap[i]
		i = smallest
	}
	return top
}

// Ticker invokes fn every interval until the engine drains or cancel is
// called; it is used for periodic measurement processes such as the
// 30-second SNMP poller. The first tick fires at now+interval.
type Ticker struct {
	cancelled bool
}

// Cancel stops future ticks. The currently scheduled tick becomes a no-op.
func (tk *Ticker) Cancel() { tk.cancelled = true }

// Tick schedules fn(now) every interval on e. fn runs before the next tick
// is scheduled, so a callback may Cancel the ticker to stop the series.
func Tick(e *Engine, interval Duration, fn func(Time)) (*Ticker, error) {
	if interval <= 0 {
		return nil, errors.New("simclock: tick interval must be positive")
	}
	tk := &Ticker{}
	var step func()
	step = func() {
		if tk.cancelled {
			return
		}
		fn(e.Now())
		if tk.cancelled {
			return
		}
		e.MustAfter(interval, step)
	}
	if err := e.After(interval, step); err != nil {
		return nil, err
	}
	return tk, nil
}
