package usagestats

import (
	"net"
	"strings"
	"testing"
	"time"
)

func sampleRecord() Record {
	return Record{
		Type:        Retrieve,
		SizeBytes:   32 << 30,
		Start:       time.Date(2010, 9, 15, 2, 0, 0, 0, time.UTC),
		DurationSec: 142.5,
		ServerHost:  "dtn01.nersc.gov",
		RemoteHost:  "dtn02.ornl.gov",
		Streams:     8,
		Stripes:     1,
		BufferBytes: 4 << 20,
		BlockBytes:  256 << 10,
	}
}

func TestRecordValidate(t *testing.T) {
	if err := sampleRecord().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Record){
		func(r *Record) { r.Type = "PUSH" },
		func(r *Record) { r.SizeBytes = 0 },
		func(r *Record) { r.DurationSec = 0 },
		func(r *Record) { r.Start = time.Time{} },
		func(r *Record) { r.ServerHost = "" },
		func(r *Record) { r.Streams = 0 },
		func(r *Record) { r.Stripes = 0 },
		func(r *Record) { r.BufferBytes = -1 },
	}
	for i, m := range mutations {
		r := sampleRecord()
		m(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestFailedRecordCode(t *testing.T) {
	// Success records keep the historical wire shape: no CODE key.
	if line := sampleRecord().Marshal(); strings.Contains(line, "CODE=") {
		t.Errorf("success record emits CODE: %s", line)
	}
	// Failed records carry the final reply code and may have a zero
	// partial byte count.
	r := sampleRecord()
	r.Code = 425
	r.SizeBytes = 0
	if !r.Failed() {
		t.Fatal("code 425 should mark the record failed")
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("failed record with zero partial size: %v", err)
	}
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
	// Implausible codes and negative partial sizes are rejected.
	for _, m := range []func(*Record){
		func(r *Record) { r.Code = -1 },
		func(r *Record) { r.Code = 42 },
		func(r *Record) { r.Code = 700 },
		func(r *Record) { r.Code = 550; r.SizeBytes = -1 },
	} {
		bad := sampleRecord()
		m(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("record %+v should fail validation", bad)
		}
	}
	// Intermediate codes (< 400) are plausible but not failures.
	ok := sampleRecord()
	ok.Code = 226
	if ok.Failed() {
		t.Error("226 is not a failure code")
	}
	if err := ok.Validate(); err != nil {
		t.Error(err)
	}
}

func TestThroughput(t *testing.T) {
	r := sampleRecord()
	want := float64(32<<30) * 8 / 142.5
	if got := r.ThroughputBps(); got != want {
		t.Errorf("ThroughputBps = %v, want %v", got, want)
	}
	if got := r.ThroughputMbps(); got != want/1e6 {
		t.Errorf("ThroughputMbps = %v, want %v", got, want/1e6)
	}
	r.DurationSec = 0
	if r.ThroughputBps() != 0 {
		t.Error("zero duration should yield zero throughput")
	}
}

func TestEnd(t *testing.T) {
	r := sampleRecord()
	want := r.Start.Add(time.Duration(142.5 * float64(time.Second)))
	if !r.End().Equal(want) {
		t.Errorf("End = %v, want %v", r.End(), want)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := sampleRecord()
	line := r.Marshal()
	got, err := Unmarshal(line)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

func TestMarshalAnonymizedRoundTrip(t *testing.T) {
	r := sampleRecord().Anonymize()
	if strings.Contains(r.Marshal(), "DEST=") {
		t.Error("anonymized record should omit DEST")
	}
	got, err := Unmarshal(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.RemoteHost != "" {
		t.Error("RemoteHost should stay empty")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := []string{
		"garbage",                       // no '='
		"TYPE=RETR NBYTES=abc",          // bad int
		"TYPE=RETR",                     // fails validation
		"TYPE=RETR NBYTES=1 START=xxx",  // bad time
		"TYPE=RETR STREAMS=notanumber",  // bad int
		"TYPE=RETR DURATION=nonsense==", // bad float (extra '=' is part of value)
	}
	for _, line := range cases {
		if _, err := Unmarshal(line); err == nil {
			t.Errorf("Unmarshal(%q) should fail", line)
		}
	}
}

func TestUnmarshalIgnoresUnknownKeys(t *testing.T) {
	line := sampleRecord().Marshal() + " FUTUREFIELD=1"
	if _, err := Unmarshal(line); err != nil {
		t.Errorf("unknown key should be ignored: %v", err)
	}
}

func TestLogRoundTrip(t *testing.T) {
	records := []Record{sampleRecord(), sampleRecord().Anonymize()}
	records[1].Start = records[1].Start.Add(time.Hour)
	var sb strings.Builder
	if err := WriteLog(&sb, records); err != nil {
		t.Fatal(err)
	}
	text := "# comment line\n\n" + sb.String()
	got, err := ReadLog(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records, want 2", len(got))
	}
	for i := range got {
		if got[i] != records[i] {
			t.Errorf("record %d mismatch", i)
		}
	}
}

func TestWriteLogRejectsInvalid(t *testing.T) {
	var sb strings.Builder
	if err := WriteLog(&sb, []Record{{}}); err == nil {
		t.Error("invalid record should fail")
	}
}

func TestReadLogBadLine(t *testing.T) {
	if _, err := ReadLog(strings.NewReader("not a record\n")); err == nil {
		t.Error("bad line should fail with line number")
	}
}

func TestSortByStart(t *testing.T) {
	a, b := sampleRecord(), sampleRecord()
	a.Start = a.Start.Add(time.Hour)
	rs := []Record{a, b}
	SortByStart(rs)
	if !rs[0].Start.Before(rs[1].Start) {
		t.Error("not sorted by start")
	}
}

func TestCollectorEndToEnd(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	snd, err := NewSender(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	want := sampleRecord()
	if err := snd.Send(want); err != nil {
		t.Fatal(err)
	}
	// UDP is async; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rs := col.Records(); len(rs) == 1 {
			if rs[0].RemoteHost != "" {
				t.Error("collector should anonymize the remote host")
			}
			if rs[0].SizeBytes != want.SizeBytes || rs[0].Streams != want.Streams {
				t.Errorf("collected %+v", rs[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("record never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCollectorDropsMalformed(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := net.Dial("udp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("junk packet")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	dropped := func() int {
		col.mu.Lock()
		defer col.mu.Unlock()
		return col.dropped
	}
	for dropped() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("malformed packet never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(col.Records()) != 0 {
		t.Error("malformed packet should not produce a record")
	}
}

func TestSenderRejectsInvalid(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	snd, err := NewSender(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	if err := snd.Send(Record{}); err == nil {
		t.Error("invalid record should be rejected before sending")
	}
}
