// Package sessions groups GridFTP transfer records into sessions — runs of
// back-to-back transfers between the same two endpoints — using the
// paper's configurable gap parameter g: a transfer joins the current
// session when it starts no more than g after the session's latest
// transfer end. Gaps may be negative (scripts start transfers
// concurrently), which the grouping handles by tracking the maximum end
// time seen so far.
package sessions

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
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
	c, err := ByPair(records)
	if err != nil && g >= 0 { // a negative g is Cut's error, and reported first
		return nil, err
	}
	return Cut(c, g)
}

// ByPair returns a copy of records ordered stably by (server, remote,
// start), the order Cut reads: sort a log once to cut it at several gaps.
func ByPair(records []usagestats.Record) ([]usagestats.Record, error) {
	for i, r := range records {
		if r.RemoteHost == "" {
			return nil, fmt.Errorf("%w (record %d)", ErrNoRemote, i)
		}
	}
	c := slices.Clone(records)
	slices.SortStableFunc(c, func(a, b usagestats.Record) int {
		return cmp.Or(strings.Compare(a.ServerHost, b.ServerHost),
			strings.Compare(a.RemoteHost, b.RemoteHost), a.Start.Compare(b.Start))
	})
	return c, nil
}

// Cut splits records in ByPair's order into Group's sessions at gap g,
// ordered by start. Each session's Transfers is a view into records, capped
// so that an append copies rather than overwrite the next session; records
// must not be modified while its sessions are in use.
func Cut(records []usagestats.Record, g time.Duration) ([]*Session, error) {
	if g < 0 {
		return nil, errors.New("sessions: negative gap")
	}
	out := []*Session{}
	for i, j := 0, 0; i < len(records); i = j {
		first := &records[i]
		var horizon time.Time // latest end time within the current session
		for ; j < len(records); j++ {
			r := &records[j]
			if j > i && (r.ServerHost != first.ServerHost || r.RemoteHost != first.RemoteHost ||
				r.Start.After(horizon.Add(g))) {
				break
			}
			if e := r.End(); e.After(horizon) {
				horizon = e
			}
		}
		out = append(out, &Session{ServerHost: first.ServerHost, RemoteHost: first.RemoteHost, Transfers: records[i:j:j]})
	}
	slices.SortStableFunc(out, func(a, b *Session) int { return a.Start().Compare(b.Start()) })
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
