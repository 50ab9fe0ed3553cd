package alphaflow

import (
	"testing"
	"time"

	"gftpvc/internal/usagestats"
)

func rec(server, remote string, sizeBytes int64, durSec float64) usagestats.Record {
	return usagestats.Record{
		Type: usagestats.Retrieve, SizeBytes: sizeBytes,
		Start: time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC), DurationSec: durSec,
		ServerHost: server, RemoteHost: remote, Streams: 1, Stripes: 1,
	}
}

func TestClassifierValidate(t *testing.T) {
	if err := DefaultClassifier().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Classifier{MinRateBps: 0, MinSizeBytes: 1}).Validate(); err == nil {
		t.Error("zero rate should fail")
	}
	if err := (Classifier{MinRateBps: 1, MinSizeBytes: 0}).Validate(); err == nil {
		t.Error("zero size should fail")
	}
}

func TestIsAlpha(t *testing.T) {
	c := DefaultClassifier()
	cases := []struct {
		size, dur float64
		want      bool
	}{
		{4e9, 16, true},    // 2 Gbps, 4 GB: the paper's α regime
		{4e9, 1000, false}, // large but slow (32 Mbps)
		{1e8, 0.1, false},  // fast but small
		{2e9, 0, false},    // zero duration
		{2e9, 100, true},   // 160 Mbps, 2 GB
	}
	for i, tc := range cases {
		if got := c.IsAlpha(tc.size, tc.dur); got != tc.want {
			t.Errorf("case %d: IsAlpha(%v,%v) = %v, want %v", i, tc.size, tc.dur, got, tc.want)
		}
	}
}

func TestRedirectorLearns(t *testing.T) {
	r, err := NewRedirector(DefaultClassifier())
	if err != nil {
		t.Fatal(err)
	}
	if r.ShouldRedirect("dtn.slac", "dtn.bnl") {
		t.Error("should not redirect before observing")
	}
	r.Observe(rec("dtn.slac", "dtn.bnl", 4e9, 16))
	if !r.ShouldRedirect("dtn.slac", "dtn.bnl") {
		t.Error("should redirect after an alpha observation")
	}
	// Reverse direction matches too.
	if !r.ShouldRedirect("dtn.bnl", "dtn.slac") {
		t.Error("reverse direction should match")
	}
	if r.ShouldRedirect("dtn.slac", "dtn.ornl") {
		t.Error("unrelated pair should not match")
	}
}

func TestRedirectorIgnoresNonAlphaAndAnonymized(t *testing.T) {
	r, _ := NewRedirector(DefaultClassifier())
	r.Observe(rec("a", "b", 1e6, 10)) // tiny
	anon := rec("a", "", 4e9, 16)     // anonymized
	r.Observe(anon)
	if len(r.Rules()) != 0 {
		t.Errorf("rules = %+v, want none", r.Rules())
	}
}

func TestRulesSortedByBytes(t *testing.T) {
	r, _ := NewRedirector(DefaultClassifier())
	r.Observe(rec("a", "b", 4e9, 16))
	r.Observe(rec("a", "c", 8e9, 30))
	r.Observe(rec("a", "c", 8e9, 30))
	rules := r.Rules()
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
	if rules[0].Pair.Dst != "c" || rules[0].Hits != 2 || rules[0].BytesSeen != 16e9 {
		t.Errorf("top rule = %+v", rules[0])
	}
}

func TestNewRedirectorValidation(t *testing.T) {
	if _, err := NewRedirector(Classifier{}); err == nil {
		t.Error("invalid classifier should fail")
	}
}
