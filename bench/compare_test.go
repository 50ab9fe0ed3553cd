package main

import (
	"strings"
	"testing"
)

var fixtureSpec = &benchSpec{EndToEnd: []metricSpec{
	{Name: "goodput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.10},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "alloc_MB_per_op", Unit: "MB", Better: "lower", Bound: 0.05},
}}

func TestCompareVerdictsOnFixtures(t *testing.T) {
	oldRep, err := readReport("testdata/old.json")
	if err != nil {
		t.Fatal(err)
	}
	newRep, err := readReport("testdata/new.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]verdict{}
	for _, c := range compareRuns(fixtureSpec, oldRep.Runs, newRep.Runs) {
		got[c.Workload+"/"+c.Metric] = c.Verdict
	}
	want := map[string]verdict{
		"bulk_retr/goodput_MBps":    regressed,   // 1400 -> 1000 MB/s, higher is better
		"bulk_retr/op_p50_ms":       improved,    // 46 -> 40 ms, far beyond the spread
		"bulk_retr/alloc_MB_per_op": withinBound, // +1 % against a 5 % bound
		"small_files/goodput_MBps":  unresolved,  // spread wider than the bound, ranges overlap
		"small_files/op_p50_ms":     improved,    // as noisy, but every new run beats every old one
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: %q, want %q", k, got[k], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("compared %d rows, want %d: %v", len(got), len(want), got)
	}
	// The same file against itself moves nothing.
	for _, c := range compareRuns(fixtureSpec, oldRep.Runs, oldRep.Runs) {
		if c.Workload == "bulk_retr" && c.Verdict != withinBound {
			t.Errorf("old vs old: %s/%s is %q", c.Workload, c.Metric, c.Verdict)
		}
	}
}

func TestCompareCmdExitsOnRegressionAndFailures(t *testing.T) {
	if err := compareCmd([]string{"testdata/old.json", "testdata/old.json"}); err != nil {
		t.Errorf("old vs old: %v", err)
	}
	if err := compareCmd([]string{"testdata/old.json", "testdata/new.json"}); err == nil {
		t.Error("a 29% goodput regression passed")
	}
	if err := compareCmd([]string{"testdata/old.json", "testdata/failing.json"}); err == nil {
		t.Error("a higher fail_ratio passed")
	}
	err := compareCmd([]string{"testdata/old.json", "testdata/scaled.json"})
	if err == nil || !strings.Contains(err.Error(), "not comparable") {
		t.Errorf("a scaled smoke run was compared with a full run: %v", err)
	}
}

// TestBenchmarkJSONNamesWhatTheHarnessEmits keeps BENCHMARK.json and
// the harness from drifting apart without running a workload.
func TestBenchmarkJSONNamesWhatTheHarnessEmits(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, n := range []string{"setup_s", "goodput_MBps", "op_p50_ms", "op_tail_ms", "cpu_user_ms_per_op", "cpu_sys_ms_per_op", "alloc_MB_per_op"} {
		emitted[n] = true
	}
	for _, m := range spec.EndToEnd {
		if !emitted[m.Name] {
			t.Errorf("BENCHMARK.json bounds %q, which no live workload reports", m.Name)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		delete(emitted, m.Name)
	}
	for n := range emitted {
		t.Errorf("live workloads report %q, which BENCHMARK.json does not bound", n)
	}
	listed := map[string]bool{}
	for _, m := range spec.PerLayer {
		listed[m.Name] = true
	}
	for _, n := range append([]string{"proc.wall_s", "proc.gc_count", "proc.gc_pause_ms", "proc.rss_peak_MB", "proc.cpu_sys_ms_per_op"}, traceMetricNames...) {
		if !listed[n] {
			t.Errorf("per_layer lacks %q", n)
		}
	}
}
