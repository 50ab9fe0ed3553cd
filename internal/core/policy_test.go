package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/sessions"
	"gftpvc/internal/usagestats"
)

// The paper's reference rates: third-quartile transfer throughput of the
// NCAR-NICS and SLAC-BNL datasets.
const (
	ncarQ3 = 682.2e6
	slacQ3 = 256.2e6
)

var epoch = time.Date(2011, 1, 1, 0, 0, 0, 0, time.UTC)

// paperPolicy is the Table IV rule at g = 1 min: factor 10, the given
// setup delay, 30 s of hold slack.
func paperPolicy(setup time.Duration) SessionPolicy {
	return SessionPolicy{
		Feasibility: FeasibilityConfig{SetupDelay: setup, OverheadFactor: 10, ReferenceThroughputBps: ncarQ3},
		Gap:         time.Minute,
		HoldSlack:   30 * time.Second,
	}
}

// secondsAt is how many bytes take d seconds at rate bps.
func secondsAt(d float64, bps float64) int64 { return int64(d * bps / 8) }

// need is how long n bytes take at rate bps.
func need(n int64, bps float64) time.Duration {
	return time.Duration(float64(n) * 8 / bps * float64(time.Second))
}

// step is one event of a decision table, at offset at from the epoch.
// A start on an expired session opens a fresh one, as the broker does.
type step struct {
	at     time.Duration
	ev     string // "start", "end", "booked" (the last ask was made) or "pin"
	n      int64  // start: size hint; end: bytes moved
	rate   float64
	want   ActionKind
	end    time.Duration // Reserve/Extend: wanted booking end offset
	reason string        // StayIP: wanted Reason
	new    bool          // start: wanted to open a fresh session
}

func TestSessionPolicyDecisionTables(t *testing.T) {
	const g, slack = time.Minute, 30 * time.Second
	rejected := "admission rejected: no path"
	cases := []struct {
		name  string
		setup time.Duration
		steps []step
	}{
		{"short session stays IP", time.Minute, []step{
			// 51.2 GB threshold at 682.2 Mbps: 1 GB jobs never reach it.
			{at: 0, ev: "start", n: 1e9, rate: ncarQ3, want: ActStayIP, new: true},
			{at: 12 * time.Second, ev: "end", n: 1e9},
			{at: 40 * time.Second, ev: "start", n: 1e9, rate: ncarQ3, want: ActStayIP},
			{at: 52 * time.Second, ev: "end", n: 1e9},
		}},
		{"small jobs accumulate until the session reserves", 50 * time.Millisecond, []step{
			// 42.6 MB threshold: 15 MB, then 30 MB seen + 15 MB hint.
			{at: 0, ev: "start", n: 15e6, rate: ncarQ3, want: ActStayIP, new: true},
			{at: time.Second, ev: "end", n: 15e6},
			{at: 2 * time.Second, ev: "start", n: 15e6, rate: ncarQ3, want: ActStayIP},
			{at: 3 * time.Second, ev: "end", n: 15e6},
			{at: 4 * time.Second, ev: "start", n: 15e6, rate: ncarQ3, want: ActReserve,
				end: 4*time.Second + need(15e6, ncarQ3) + slack + g + 50*time.Millisecond},
		}},
		{"extend only when the hold is short", time.Minute, []step{
			// 19.2 GB threshold at 256.2 Mbps: a 600 s job sits exactly on it.
			{at: 0, ev: "start", n: secondsAt(600, slacQ3), rate: slacQ3, want: ActReserve,
				end: 600*time.Second + slack + g + time.Minute, new: true},
			{at: 0, ev: "booked"},
			// 10 + 100 + 30 s <= 750 s: covered, rides with no call.
			{at: 10 * time.Second, ev: "start", n: secondsAt(100, slacQ3), rate: slacQ3, want: ActRide},
			// 20 + 1000 + 30 s > 750 s: re-book to need + g.
			{at: 20 * time.Second, ev: "start", n: secondsAt(1000, slacQ3), rate: slacQ3, want: ActExtend,
				end: 1050*time.Second + g},
			{at: 20 * time.Second, ev: "booked"},
			// 30 + 1000 + 30 s <= 1110 s: the extension covers it.
			{at: 30 * time.Second, ev: "start", n: secondsAt(1000, slacQ3), rate: slacQ3, want: ActRide},
		}},
		{"a fallback is sticky within its session", time.Minute, []step{
			{at: 0, ev: "start", n: 100e9, rate: ncarQ3, want: ActReserve,
				end: need(100e9, ncarQ3) + slack + g + time.Minute, new: true},
			{at: 0, ev: "pin"},
			{at: time.Second, ev: "start", n: 100e9, rate: ncarQ3, want: ActStayIP, reason: rejected},
			{at: 20 * time.Minute, ev: "end", n: 100e9},
			{at: 21 * time.Minute, ev: "end", n: 100e9},
			// Idle exactly g: still the pinned session.
			{at: 22 * time.Minute, ev: "start", n: 100e9, rate: ncarQ3, want: ActStayIP, reason: rejected},
			{at: 23 * time.Minute, ev: "end", n: 1e9},
			// The next session retries: idle g + 1 ns.
			{at: 24*time.Minute + 1, ev: "start", n: 100e9, rate: ncarQ3, want: ActReserve,
				end: 24*time.Minute + 1 + need(100e9, ncarQ3) + slack + g + time.Minute, new: true},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var p *SessionPolicy
			var last Action
			for i, st := range tc.steps {
				now := epoch.Add(st.at)
				switch st.ev {
				case "start":
					fresh := p == nil || p.Expired(now)
					if fresh {
						fp := paperPolicy(tc.setup)
						p = &fp
					}
					if fresh != st.new {
						t.Fatalf("step %d: fresh session = %v, want %v", i, fresh, st.new)
					}
					last = p.Start(now, st.n, st.rate)
					if last.Kind != st.want {
						t.Fatalf("step %d: %+v, want kind %d", i, last, st.want)
					}
					if want := epoch.Add(st.end); st.end != 0 && absDur(last.End.Sub(want)) > time.Microsecond {
						t.Fatalf("step %d: booking end %v, want %v", i, last.End.Sub(epoch), st.end)
					}
					if last.Reason != st.reason {
						t.Fatalf("step %d: reason %q, want %q", i, last.Reason, st.reason)
					}
				case "end":
					p.End(now, st.n)
				case "booked":
					p.Booked(last.End)
				case "pin":
					p.PinIP(rejected)
				}
			}
		})
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// TestSessionPolicyGapBoundary: a session idle for exactly g is still
// open — the job joins, as sessions.Group puts a transfer starting g
// after the horizon in the same session — and one nanosecond later it
// has expired. A running job keeps the session open however long.
func TestSessionPolicyGapBoundary(t *testing.T) {
	for _, g := range []time.Duration{0, time.Minute, 2 * time.Minute} {
		for _, tc := range []struct {
			idle    time.Duration
			expired bool
		}{
			{0, false},
			{g - 1, false},
			{g, false},
			{g + 1, true},
		} {
			if tc.idle < 0 {
				continue
			}
			p := paperPolicy(time.Minute)
			p.Gap = g
			if p.Expired(epoch) {
				t.Fatalf("g=%v: a fresh session is expired", g)
			}
			p.Start(epoch, 1, ncarQ3)
			if p.Expired(epoch.Add(time.Hour)) {
				t.Fatalf("g=%v: a session with a running job expired", g)
			}
			p.End(epoch.Add(time.Second), 1)
			next := epoch.Add(time.Second + tc.idle)
			if got := p.Expired(next); got != tc.expired {
				t.Errorf("g=%v idle=%v: Expired = %v, want %v", g, tc.idle, got, tc.expired)
			}
			// The offline reference cuts the same two transfers the same way.
			ss, err := sessions.Group([]usagestats.Record{
				{SizeBytes: 1, Start: epoch, DurationSec: 1, ServerHost: "a", RemoteHost: "b"},
				{SizeBytes: 1, Start: next, DurationSec: 1, ServerHost: "a", RemoteHost: "b"},
			}, g)
			if err != nil {
				t.Fatal(err)
			}
			if split := len(ss) == 2; split != tc.expired {
				t.Errorf("g=%v idle=%v: sessions.Group split = %v, policy expired = %v", g, tc.idle, split, tc.expired)
			}
		}
	}
}

// TestSessionPolicyClose: closing a session that holds a circuit asks for
// its cancel, stamped with the session's last job end; one without a
// circuit (or pinned to IP after losing it) asks for nothing.
func TestSessionPolicyClose(t *testing.T) {
	p := paperPolicy(50 * time.Millisecond)
	a := p.Start(epoch, 100e6, ncarQ3)
	if a.Kind != ActReserve {
		t.Fatalf("start: %+v", a)
	}
	p.Booked(a.End)
	p.End(epoch.Add(3*time.Second), 100e6)
	if c := p.Close(); c.Kind != ActCancel || !c.End.Equal(epoch.Add(3*time.Second)) {
		t.Fatalf("close with circuit: %+v", c)
	}
	if c := p.Close(); c.Kind != ActStayIP {
		t.Fatalf("second close: %+v", c)
	}
	q := paperPolicy(50 * time.Millisecond)
	q.Booked(q.Start(epoch, 100e6, ncarQ3).End)
	q.PinIP("circuit lost")
	if c := q.Close(); c.Kind != ActStayIP {
		t.Fatalf("close after loss: %+v", c)
	}
}

// decodeRecords turns fuzz bytes into usage records over three endpoint
// pairs, four bytes a record: pair, start step (15 s units, low bit one
// extra nanosecond; zero repeats the previous start), duration (15 s
// units, zero allowed) and size. Starts only move forward in input order
// but durations overlap freely, so gaps go negative.
func decodeRecords(data []byte) []usagestats.Record {
	var out []usagestats.Record
	at := epoch
	for i := 0; i+4 <= len(data) && len(out) < 256; i += 4 {
		at = at.Add(time.Duration(data[i+1]>>1)*15*time.Second + time.Duration(data[i+1]&1))
		pair := data[i] % 3
		out = append(out, usagestats.Record{
			SizeBytes:   int64(data[i+3]) << 20,
			Start:       at,
			DurationSec: float64(data[i+2]>>2) * 15,
			ServerHost:  "server",
			RemoteHost:  fmt.Sprintf("remote%d", pair),
			Streams:     len(out), // the record's identity
		})
	}
	return out
}

// policyCut drives one SessionPolicy per endpoint pair with the
// records' start and end events in time order (a zero-length transfer
// starts before it ends), replacing a pair's session when a start finds
// it expired, and returns each record's session number.
func policyCut(records []usagestats.Record, g time.Duration) []int {
	type event struct {
		at  time.Time
		end bool
		rec int
	}
	var evs []event
	for i, r := range records {
		evs = append(evs, event{r.Start, false, i}, event{r.End(), true, i})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if !evs[i].at.Equal(evs[j].at) {
			return evs[i].at.Before(evs[j].at)
		}
		return !evs[i].end && evs[j].end
	})
	cur := map[string]*SessionPolicy{}
	of := make([]*SessionPolicy, len(records))
	ids := map[*SessionPolicy]int{}
	cut := make([]int, len(records))
	for _, ev := range evs {
		r := records[ev.rec]
		if ev.end {
			of[ev.rec].End(ev.at, r.SizeBytes)
			continue
		}
		p := cur[r.RemoteHost]
		if p == nil || p.Expired(ev.at) {
			p = &SessionPolicy{Feasibility: FeasibilityConfig{SetupDelay: time.Minute, OverheadFactor: 10},
				Gap: g, HoldSlack: 30 * time.Second}
			cur[r.RemoteHost] = p
			ids[p] = len(ids)
		}
		if a := p.Start(ev.at, r.SizeBytes, ncarQ3); a.Kind == ActReserve {
			p.Booked(a.End)
		}
		of[ev.rec] = p
		cut[ev.rec] = ids[p]
	}
	return cut
}

// FuzzSessionPolicy holds the online policy's session cut to
// sessions.Group's, the offline reference, for g in {0, 1 min, 2 min}.
func FuzzSessionPolicy(f *testing.F) {
	// The exactly-g boundary at g = 1 and 2 min: a transfer ends and the
	// next starts g later, then g + 1 ns later.
	f.Add([]byte{0, 0, 4, 1, 0, 10, 4, 1, 0, 11, 4, 1})
	f.Add([]byte{0, 0, 8, 1, 0, 20, 8, 1, 0, 17, 8, 1})
	// Equal starts, zero durations, and a long transfer still running
	// when a short one's gap has passed, across all three pairs.
	f.Add([]byte{0, 0, 40, 9, 1, 0, 0, 3, 2, 0, 0, 3, 0, 2, 4, 1, 1, 0, 12, 7, 0, 4, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeRecords(data)
		for _, g := range []time.Duration{0, time.Minute, 2 * time.Minute} {
			ss, err := sessions.Group(records, g)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]int, len(records))
			for i, s := range ss {
				for _, r := range s.Transfers {
					want[r.Streams] = i
				}
			}
			got := policyCut(records, g)
			if msg := samePartition(got, want); msg != "" {
				t.Fatalf("g=%v: policy cut differs from sessions.Group: %s\nrecords: %s", g, msg, dump(records))
			}
		}
	})
}

// samePartition reports how two labelings of the same records group
// them differently ("" when they are the same partition).
func samePartition(a, b []int) string {
	ab, ba := map[int]int{}, map[int]int{}
	for i := range a {
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return fmt.Sprintf("record %d: together in one cut, apart in the other", i)
		}
		if y, ok := ba[b[i]]; ok && y != a[i] {
			return fmt.Sprintf("record %d: apart in one cut, together in the other", i)
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return ""
}

func dump(records []usagestats.Record) string {
	var sb strings.Builder
	for _, r := range records {
		fmt.Fprintf(&sb, "\n  %s +%v %gs", r.RemoteHost, r.Start.Sub(epoch), r.DurationSec)
	}
	return sb.String()
}
