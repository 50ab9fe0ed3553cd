package oscarsd

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// FuzzDaemonDispatch runs each input, split into at most eight request
// lines, through the line handler of a fresh daemon. Every reply must be
// valid JSON that is either ok or carries one of the Code constants, the
// only thing a client classifies a failure by, and no link may ever be
// booked past its reservable capacity: its available bandwidth never
// goes negative.
func FuzzDaemonDispatch(f *testing.F) {
	for _, seed := range []string{
		`{"op":"hello"}`,
		`{"op":"hello","id":-1,"rate_bps":-5}`,
		`{"op":"topology"}`,
		`{"op":"topology","src":"x"}`,
		`{"op":"reserve","src":"nersc-ornl-dtn-src","dst":"nersc-ornl-dtn-dst","rate_bps":4e9,"start":10,"end":20}`,
		`{"op":"reserve","src":"nersc-ornl-dtn-src","dst":"nersc-ornl-dtn-dst","rate_bps":4e9,"start":20,"end":10}`,
		`{"op":"available","src":"nersc-ornl-dtn-src","dst":"nersc-ornl-dtn-dst","rate_bps":1e9,"start":10,"end":20}`,
		`{"op":"available","src":"nope","dst":"nersc-ornl-dtn-dst","rate_bps":1e9,"start":10,"end":20}`,
		`{"op":"reserve","src":"nersc-ornl-dtn-src","dst":"nersc-ornl-dtn-dst","rate_bps":2e9,"start":10,"end":20}` + "\n" +
			`{"op":"modify","id":1,"rate_bps":4e9,"start":5,"end":30}` + "\n" +
			`{"op":"reserve","src":"nersc-ornl-dtn-src","dst":"nersc-ornl-dtn-dst","rate_bps":2e9,"start":10,"end":20}`,
		`{"op":"modify","id":7,"rate_bps":1e9,"start":0,"end":1}`,
		`{"op":"reserve","src":"nersc-ornl-dtn-src","dst":"nersc-ornl-dtn-dst","rate_bps":1e9,"start":10,"end":20}` + "\n" +
			`{"op":"cancel","id":1}` + "\n" + `{"op":"cancel","id":1}`,
		`{"op":"cancel","id":0}`,
		`{"op":"frobnicate"}`,
		`{"op":`,
	} {
		f.Add([]byte(seed))
	}
	codes := map[string]bool{CodeBadRequest: true, CodeNoPath: true, CodeRejected: true,
		CodeUnknownCircuit: true, CodeUnknownOp: true, CodeMalformed: true}
	f.Fuzz(func(t *testing.T, in []byte) {
		const fraction = 0.5
		s, err := newServer(Config{Scenario: "nersc-ornl", ReservableFraction: fraction})
		if err != nil {
			t.Fatal(err)
		}
		capacity := map[string]float64{}
		for _, l := range s.ledger.Topology().Links() {
			capacity[string(l.ID)] = l.CapacityBps * fraction
		}
		held := map[int64]booking{}
		for _, line := range bytes.SplitN(in, []byte("\n"), 8) {
			out, err := json.Marshal(s.handleLine(line))
			if err != nil || !json.Valid(out) {
				t.Fatalf("reply to %q does not encode: %s, %v", line, out, err)
			}
			var resp Response
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("reply %s does not decode: %v", out, err)
			}
			if !resp.OK && !codes[resp.Code] {
				t.Fatalf("failure reply %s to %q carries no known code", out, line)
			}
			if !resp.OK {
				continue
			}
			var req Request
			_ = json.Unmarshal(line, &req) // an ok reply means the line decoded
			switch req.Op {
			case OpReserve, OpModify:
				held[resp.ID] = booking{resp.Path, req.RateBps, req.Start, req.End}
			case OpCancel:
				delete(held, req.ID)
			}
			if link, peak := overbooked(held, capacity, float64(s.now())); link != "" {
				t.Fatalf("after %q, link %s books %v bps past its %v reservable",
					line, link, peak, capacity[link])
			}
		}
	})
}

// booking is a held circuit as its ok replies left it.
type booking struct {
	path             []string
	rate, start, end float64
}

// overbooked returns a link whose circuits book more than its capacity
// at some time from now on, with that peak, or "". Bookings that ended
// before now may have been pruned, so earlier times are not checked.
func overbooked(held map[int64]booking, capacity map[string]float64, now float64) (string, float64) {
	for link, limit := range capacity {
		for _, at := range held {
			t := max(at.start, now)
			peak := 0.0
			for _, b := range held {
				if b.start <= t && t < b.end && slices.Contains(b.path, link) {
					peak += b.rate
				}
			}
			if peak > limit*(1+1e-9) {
				return link, peak
			}
		}
	}
	return "", 0
}
