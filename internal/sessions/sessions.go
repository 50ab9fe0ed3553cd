// Package sessions groups GridFTP transfer records into sessions — runs of
// back-to-back transfers between the same two endpoints — using the
// paper's configurable gap parameter g: a transfer joins the current
// session when it starts no more than g after the session's latest
// transfer end. Gaps may be negative (scripts start transfers
// concurrently), which the grouping handles by tracking the maximum end
// time seen so far.
package sessions

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"gftpvc/internal/usagestats"
)

// Session is one batch of transfers between a server and one remote host.
type Session struct {
	ServerHost string
	RemoteHost string
	Transfers  []usagestats.Record
}

// Count returns the number of transfers in the session.
func (s *Session) Count() int { return len(s.Transfers) }

// SizeBytes returns the total bytes moved by the session.
func (s *Session) SizeBytes() int64 {
	var n int64
	for _, t := range s.Transfers {
		n += t.SizeBytes
	}
	return n
}

// Start returns the start of the first transfer.
func (s *Session) Start() time.Time { return s.Transfers[0].Start }

// End returns the latest end time across the session's transfers (not the
// last transfer's end: with concurrent transfers an earlier-starting
// transfer may finish last).
func (s *Session) End() time.Time {
	var end time.Time
	for _, t := range s.Transfers {
		if e := t.End(); e.After(end) {
			end = e
		}
	}
	return end
}

// DurationSec returns the session's wall-clock duration in seconds.
func (s *Session) DurationSec() float64 {
	return s.End().Sub(s.Start()).Seconds()
}

// ErrNoRemote is returned when records lack remote-host information, as in
// the paper's NERSC dataset ("the remote IP address was anonymized for
// privacy reasons. Without knowledge of the remote end ... transfers could
// not be grouped into sessions").
var ErrNoRemote = errors.New("sessions: records lack remote host (anonymized log)")

// Group partitions records into sessions with gap parameter g. Records are
// grouped per (server, remote) endpoint pair, ordered by start time; a new
// session opens when a transfer starts more than g after the maximum end
// time seen so far in the current session. g = 0 demands strictly
// back-to-back (or overlapping) transfers; negative g is an error.
func Group(records []usagestats.Record, g time.Duration) ([]*Session, error) {
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
	// Order sessions chronologically across endpoint pairs.
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Start().Before(out[j].Start())
	})
	return out, nil
}

// Stats summarizes a grouped dataset the way the paper's Table III rows
// do: single- vs multi-transfer session counts, the share of sessions with
// at most two transfers, and the extremes of session fan-out.
type Stats struct {
	Sessions             int
	SingleTransfer       int
	MultiTransfer        int
	PercentOneOrTwo      float64
	MaxTransfers         int
	SessionsOver100Xfers int
}

// Summarize computes Table III-style statistics over sessions.
func Summarize(sessions []*Session) Stats {
	st := Stats{Sessions: len(sessions)}
	oneOrTwo := 0
	for _, s := range sessions {
		n := s.Count()
		if n == 1 {
			st.SingleTransfer++
		} else {
			st.MultiTransfer++
		}
		if n <= 2 {
			oneOrTwo++
		}
		if n > st.MaxTransfers {
			st.MaxTransfers = n
		}
		if n >= 100 {
			st.SessionsOver100Xfers++
		}
	}
	if len(sessions) > 0 {
		st.PercentOneOrTwo = 100 * float64(oneOrTwo) / float64(len(sessions))
	}
	return st
}

// Sizes returns each session's total size in megabytes.
func Sizes(sessions []*Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = float64(s.SizeBytes()) / 1e6
	}
	return out
}

// Durations returns each session's duration in seconds.
func Durations(sessions []*Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = s.DurationSec()
	}
	return out
}

// TransferThroughputsMbps returns the throughput of every individual
// transfer in Mbps (the paper characterizes transfer throughput, not
// session throughput, "because session throughputs could be lower if some
// of the individual transfers within a session had lower throughput").
func TransferThroughputsMbps(records []usagestats.Record) []float64 {
	out := make([]float64, len(records))
	for i, r := range records {
		out[i] = r.ThroughputMbps()
	}
	return out
}
