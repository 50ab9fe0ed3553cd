package sessions

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"gftpvc/internal/usagestats"
)

var epoch = time.Date(2011, 6, 1, 0, 0, 0, 0, time.UTC)

// rec builds a record starting at epoch+startSec lasting durSec seconds.
func rec(remote string, startSec, durSec float64, sizeBytes int64) usagestats.Record {
	return usagestats.Record{
		Type:        usagestats.Retrieve,
		SizeBytes:   sizeBytes,
		Start:       epoch.Add(time.Duration(startSec * float64(time.Second))),
		DurationSec: durSec,
		ServerHost:  "dtn.ncar.gov",
		RemoteHost:  remote,
		Streams:     1,
		Stripes:     1,
	}
}

func TestGroupBackToBack(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1e9),
		rec("nics", 15, 10, 1e9),  // 5s gap: same session under g=1min
		rec("nics", 200, 10, 1e9), // 175s gap: new session
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
	if ss[0].Count() != 2 || ss[1].Count() != 1 {
		t.Errorf("session sizes = %d, %d; want 2, 1", ss[0].Count(), ss[1].Count())
	}
}

func TestGroupZeroGap(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1e9),
		rec("nics", 10, 10, 1e9), // starts exactly at previous end
		rec("nics", 21, 10, 1e9), // 1s gap: new session under g=0
	}
	ss, err := Group(records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2", len(ss))
	}
}

func TestGroupNegativeGapConcurrentTransfers(t *testing.T) {
	// Concurrent transfers: the second starts before the first ends (the
	// "negative gap" case the paper calls out explicitly).
	records := []usagestats.Record{
		rec("nics", 0, 100, 1e9),
		rec("nics", 5, 10, 1e9),
		rec("nics", 30, 10, 1e9),
		// Starts 3s after the *first* transfer's end (t=100); still within
		// g=5s of the session horizon.
		rec("nics", 103, 10, 1e9),
	}
	ss, err := Group(records, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 {
		t.Fatalf("got %d sessions, want 1 (horizon tracking)", len(ss))
	}
	if ss[0].Count() != 4 {
		t.Errorf("session has %d transfers, want 4", ss[0].Count())
	}
}

func TestGroupSeparatesEndpointPairs(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1e9),
		rec("ornl", 1, 10, 1e9),
		rec("nics", 12, 10, 1e9),
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("got %d sessions, want 2 (one per remote)", len(ss))
	}
}

func TestGroupAnonymizedFails(t *testing.T) {
	r := rec("", 0, 10, 1e9)
	_, err := Group([]usagestats.Record{r}, time.Minute)
	if !errors.Is(err, ErrNoRemote) {
		t.Errorf("err = %v, want ErrNoRemote (the NERSC case)", err)
	}
}

func TestGroupNegativeG(t *testing.T) {
	if _, err := Group(nil, -time.Second); err == nil {
		t.Error("negative g should fail")
	}
}

func TestGroupUnsortedInput(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 15, 10, 1e9),
		rec("nics", 0, 10, 1e9),
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 1 {
		t.Fatalf("got %d sessions, want 1 (grouping sorts internally)", len(ss))
	}
	if !ss[0].Transfers[0].Start.Before(ss[0].Transfers[1].Start) {
		t.Error("session transfers not in start order")
	}
}

func TestSessionAggregates(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 100, 4e9),
		rec("nics", 50, 100, 6e9), // overlaps; ends at 150
	}
	ss, err := Group(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	s := ss[0]
	if s.SizeBytes() != 10e9 {
		t.Errorf("SizeBytes = %v, want 10e9", s.SizeBytes())
	}
	if got := s.DurationSec(); math.Abs(got-150) > 1e-9 {
		t.Errorf("DurationSec = %v, want 150", got)
	}
}

func TestSmallerGMeansMoreSessions(t *testing.T) {
	// Property from Table III: tightening g can only split sessions.
	var records []usagestats.Record
	for i := 0; i < 50; i++ {
		records = append(records, rec("nics", float64(i*40), 25, 1e9))
	}
	counts := map[time.Duration]int{}
	for _, g := range []time.Duration{0, time.Minute, 2 * time.Minute} {
		ss, err := Group(records, g)
		if err != nil {
			t.Fatal(err)
		}
		counts[g] = len(ss)
	}
	if !(counts[0] >= counts[time.Minute] && counts[time.Minute] >= counts[2*time.Minute]) {
		t.Errorf("session counts not monotone in g: %v", counts)
	}
}

func TestSummarize(t *testing.T) {
	mk := func(n int) *Session {
		s := &Session{}
		for i := 0; i < n; i++ {
			s.Transfers = append(s.Transfers, rec("x", float64(i), 1, 1))
		}
		return s
	}
	st := Summarize([]*Session{mk(1), mk(2), mk(3), mk(150)})
	if st.Sessions != 4 || st.SingleTransfer != 1 || st.MultiTransfer != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.PercentOneOrTwo != 50 {
		t.Errorf("PercentOneOrTwo = %v, want 50", st.PercentOneOrTwo)
	}
	if st.MaxTransfers != 150 || st.SessionsOver100Xfers != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(nil)
	if st.Sessions != 0 || st.PercentOneOrTwo != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSizesDurationsThroughputs(t *testing.T) {
	records := []usagestats.Record{rec("nics", 0, 10, 1e9)}
	ss, _ := Group(records, 0)
	if got := Sizes(ss); len(got) != 1 || got[0] != 1000 {
		t.Errorf("Sizes = %v, want [1000] MB", got)
	}
	if got := Durations(ss); len(got) != 1 || got[0] != 10 {
		t.Errorf("Durations = %v, want [10]", got)
	}
	th := TransferThroughputsMbps(records)
	if len(th) != 1 || math.Abs(th[0]-800) > 1e-9 {
		t.Errorf("throughputs = %v, want [800] Mbps", th)
	}
}

// groupReference is Group as it was before it cut sessions out of one
// sorted copy: each endpoint pair's records are gathered into a slice of
// their own, sorted by start and copied into their sessions one by one.
// FuzzGroup holds Group and Cut to it.
func groupReference(records []usagestats.Record, g time.Duration) ([]*Session, error) {
	if g < 0 {
		return nil, errors.New("sessions: negative gap")
	}
	type hostPair struct {
		server, remote string
	}
	byPair := make(map[hostPair][]usagestats.Record)
	for i, r := range records {
		if r.RemoteHost == "" {
			return nil, fmt.Errorf("%w (record %d)", ErrNoRemote, i)
		}
		byPair[hostPair{r.ServerHost, r.RemoteHost}] = append(byPair[hostPair{r.ServerHost, r.RemoteHost}], r)
	}
	keys := make([]hostPair, 0, len(byPair))
	for k := range byPair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].server != keys[j].server {
			return keys[i].server < keys[j].server
		}
		return keys[i].remote < keys[j].remote
	})
	out := make([]*Session, 0, len(byPair))
	for _, k := range keys {
		rs := byPair[k]
		usagestats.SortByStart(rs)
		var cur *Session
		var horizon time.Time // latest end time within the current session
		for _, r := range rs {
			if cur != nil && !r.Start.After(horizon.Add(g)) {
				cur.Transfers = append(cur.Transfers, r)
			} else {
				cur = &Session{
					ServerHost: r.ServerHost,
					RemoteHost: r.RemoteHost,
				}
				cur.Transfers = []usagestats.Record{r}
				horizon = time.Time{}
				out = append(out, cur)
			}
			if e := r.End(); e.After(horizon) {
				horizon = e
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Start().Before(out[j].Start())
	})
	return out, nil
}

// decodeLog turns fuzz bytes into a log, four bytes a record: the
// endpoint pair (two servers by three remotes, and an anonymized remote
// at 15 mod 16), the start in 5 s steps, so that starts collide, and a
// signed duration in seconds, so that transfers overlap and a few end
// before they start. Each record's size is its index, so a reordering of
// records that compare equal shows.
func decodeLog(data []byte) []usagestats.Record {
	var records []usagestats.Record
	for i := 0; i+4 <= len(data); i += 4 {
		b := data[i : i+4]
		remote := fmt.Sprintf("r%d", b[0]>>1%3)
		if b[0]%16 == 15 {
			remote = ""
		}
		records = append(records, usagestats.Record{
			Type:        usagestats.Retrieve,
			SizeBytes:   int64(len(records)),
			Start:       epoch.Add(time.Duration(b[1]) * 5 * time.Second),
			DurationSec: float64(int8(b[2])),
			ServerHost:  fmt.Sprintf("s%d", b[0]&1),
			RemoteHost:  remote,
			Streams:     int(b[3]),
		})
	}
	return records
}

// FuzzGroup holds Group, and the sort-once-then-cut path the exhibits use
// (ByPair, then Cut at every gap from the same copy), to groupReference:
// the same sessions, the same order, the same error.
func FuzzGroup(f *testing.F) {
	f.Add([]byte{})                                                   // no records: an empty, non-nil result
	f.Add([]byte{15, 0, 10, 0})                                       // anonymized: ErrNoRemote, or the negative gap first
	f.Add([]byte{0, 0, 20, 0, 2, 0, 20, 0, 0, 5, 20, 0, 2, 5, 20, 0}) // two pairs interleaved
	equal := make([]byte, 0, 4*48)                                    // equal keys, more than an insertion sort's run
	for i := 0; i < 48; i++ {
		equal = append(equal, byte(i%2), byte(i%3), byte(i), 0)
	}
	f.Add(equal)
	f.Fuzz(func(t *testing.T, data []byte) {
		records := decodeLog(data)
		byPair, pairErr := ByPair(records)
		for _, g := range []time.Duration{-time.Second, 0, time.Minute, 2 * time.Minute} {
			want, wantErr := groupReference(records, g)
			got, err := Group(records, g)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("g=%v: Group = %s, %v; reference %s, %v", g, show(got), err, show(want), wantErr)
			}
			if pairErr != nil {
				if g >= 0 && pairErr.Error() != wantErr.Error() {
					t.Fatalf("ByPair err = %v, reference %v", pairErr, wantErr)
				}
				continue
			}
			got, err = Cut(byPair, g)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("g=%v: Cut(ByPair) = %s, %v; reference %s, %v", g, show(got), err, show(want), wantErr)
			}
		}
	})
}

// show lists sessions as their pairs and their records' sizes (decodeLog's
// indices), nil apart from empty.
func show(ss []*Session) string {
	if ss == nil {
		return "nil"
	}
	var b strings.Builder
	for _, s := range ss {
		fmt.Fprintf(&b, "[%s>%s", s.ServerHost, s.RemoteHost)
		for _, r := range s.Transfers {
			fmt.Fprintf(&b, " %d", r.SizeBytes)
		}
		b.WriteString("] ")
	}
	return b.String()
}

// TestCutViewsAreCapped: sessions are views into one shared copy, so an
// append to one session's transfers must copy, leaving its neighbours in
// that copy and every later cut from it as they were.
func TestCutViewsAreCapped(t *testing.T) {
	records := []usagestats.Record{
		rec("nics", 0, 10, 1), rec("nics", 15, 10, 2), rec("nics", 200, 10, 3),
		rec("ornl", 5, 10, 4), rec("ornl", 300, 10, 5),
	}
	byPair, err := ByPair(records)
	if err != nil {
		t.Fatal(err)
	}
	want, err := groupReference(records, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		ss, err := Cut(byPair, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		_ = append(ss[i].Transfers, rec("x", 999, 1, 999))
		if !reflect.DeepEqual(ss, want) {
			t.Fatalf("an append to session %d changed the others: %s", i, show(ss))
		}
		if later, err := Cut(byPair, time.Minute); err != nil || !reflect.DeepEqual(later, want) {
			t.Fatalf("an append to session %d changed a later cut: %s, %v", i, show(later), err)
		}
	}
}
