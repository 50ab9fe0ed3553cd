package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stream is a go test -json stream of TestFlaky run three times, failing
// on its second run, beside a passing TestSlow.
const stream = `{"Action":"start","Package":"p"}
{"Action":"run","Package":"p","Test":"TestFlaky"}
{"Action":"output","Package":"p","Test":"TestFlaky","Output":"=== RUN   TestFlaky\n"}
{"Action":"pass","Package":"p","Test":"TestFlaky","Elapsed":0.01}
{"Action":"run","Package":"p","Test":"TestFlaky"}
{"Action":"output","Package":"p","Test":"TestFlaky","Output":"    x_test.go:9: went wrong\n"}
{"Action":"fail","Package":"p","Test":"TestFlaky","Elapsed":0.02}
{"Action":"run","Package":"p","Test":"TestFlaky"}
{"Action":"pass","Package":"p","Test":"TestFlaky","Elapsed":0.01}
{"Action":"run","Package":"p","Test":"TestSlow"}
{"Action":"pass","Package":"p","Test":"TestSlow","Elapsed":1.5}
not json: a line printed outside the stream
{"Action":"output","Package":"p","Output":"FAIL\n"}
{"Action":"fail","Package":"p","Elapsed":1.6}
`

// TestRunTestsNamesFailedRun: a failed run is named with its package,
// run index and step, and only its own output is printed.
func TestRunTestsNamesFailedRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "flake-1.json"), []byte(stream), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	failed, err := runTests(dir, &out)
	if err != nil || failed != 1 {
		t.Fatalf("%d failed, %v; want 1", failed, err)
	}
	want := "FAIL p TestFlaky (run 2, step flake-1)\n        x_test.go:9: went wrong\n"
	if out.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", out.String(), want)
	}
}

// TestRunTestsListsSlowest: a green run lists each test's slowest run,
// and a fuzz step's time-boxed campaign is not a slow test.
func TestRunTestsListsSlowest(t *testing.T) {
	dir := t.TempDir()
	green := strings.ReplaceAll(stream, `"fail"`, `"pass"`)
	fuzz := strings.ReplaceAll(green, `"Elapsed":1.5`, `"Elapsed":10`)
	for step, s := range map[string]string{"check.json": green, "fuzz-FuzzX.json": fuzz} {
		if err := os.WriteFile(filepath.Join(dir, step), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if failed, err := runTests(dir, &out); err != nil || failed != 0 {
		t.Fatalf("%d failed, %v; want none", failed, err)
	}
	if want := "slowest tests, by package:\n  p: TestSlow 1.50s, TestFlaky 0.02s\n"; out.String() != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestRunTestsNeedsStreams(t *testing.T) {
	if _, err := runTests(t.TempDir(), &strings.Builder{}); err == nil {
		t.Fatal("an empty directory read as a green run")
	}
}
