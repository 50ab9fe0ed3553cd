package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// testEvent is one line of a `go test -json` stream (see go doc
// test2json); a build failure arrives as build-output lines under
// ImportPath.
type testEvent struct {
	Action, Package, Test, Output, ImportPath string
	Elapsed                                   float64
}

// testRun is one run of one test: its step (the stream's file name), its
// index among the runs of that test in the step (go test -count), and
// what it printed.
type testRun struct {
	step, pkg, test string
	run             int
	secs            float64
	output          strings.Builder
}

// runTests reads every *.json stream in dir, as `make check` and `make
// flake` leave them in TEST_LOG_DIR, and prints each failed test with
// its package, run index and output, or, when nothing failed, each
// package's five slowest tests. It reports how many failed.
func runTests(dir string, w io.Writer) (int, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, err
	}
	if len(files) == 0 {
		return 0, fmt.Errorf("no go test -json streams in %s", dir)
	}
	sort.Strings(files)
	var failed []*testRun
	passed := map[string]map[string]*testRun{}
	for _, file := range files {
		if failed, err = readStream(file, failed, passed); err != nil {
			return 0, err
		}
	}
	for _, r := range failed {
		name := r.test
		if name == "" {
			name = "(package)"
		}
		fmt.Fprintf(w, "FAIL %s %s (run %d, step %s)\n", r.pkg, name, r.run, r.step)
		for _, line := range strings.Split(strings.TrimRight(r.output.String(), "\n"), "\n") {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	if len(failed) > 0 {
		return len(failed), nil
	}
	pkgs := make([]string, 0, len(passed))
	for pkg := range passed {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	fmt.Fprintln(w, "slowest tests, by package:")
	for _, pkg := range pkgs {
		var runs []*testRun
		for _, r := range passed[pkg] {
			runs = append(runs, r)
		}
		sort.Slice(runs, func(i, j int) bool {
			return runs[i].secs > runs[j].secs || runs[i].secs == runs[j].secs && runs[i].test < runs[j].test
		})
		var top []string
		for _, r := range runs[:min(5, len(runs))] {
			top = append(top, fmt.Sprintf("%s %.2fs", r.test, r.secs))
		}
		fmt.Fprintf(w, "  %s: %s\n", pkg, strings.Join(top, ", "))
	}
	return 0, nil
}

// readStream adds one stream's failed runs to failed, and its passed
// top-level tests to passed, the slowest run of each; a fuzz step's
// stream (fuzz-*.json) adds none, as its campaign runs for a set time. A
// package that failed with no failed test
// (a build error, a panic outside a test, a timeout) is reported as a
// failed run of the package itself.
func readStream(file string, failed []*testRun, passed map[string]map[string]*testRun) ([]*testRun, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	step := strings.TrimSuffix(filepath.Base(file), ".json")
	type key struct{ pkg, test string }
	runs, current := map[key]int{}, map[key]*testRun{}
	testFailed := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev testEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue // a line go test printed outside the stream
		}
		if ev.Action == "build-output" { // ImportPath may carry a " [pkg.test]" suffix
			ev.Package, _, _ = strings.Cut(ev.ImportPath, " ")
			ev.Action = "output"
		}
		k := key{ev.Package, ev.Test}
		r := current[k]
		if r == nil || ev.Action == "run" {
			runs[k]++
			r = &testRun{step: step, pkg: ev.Package, test: ev.Test, run: runs[k]}
			current[k] = r
		}
		switch ev.Action {
		case "output":
			r.output.WriteString(ev.Output)
		case "pass":
			if ev.Test == "" || strings.Contains(ev.Test, "/") || strings.HasPrefix(step, "fuzz-") {
				break
			}
			if passed[ev.Package] == nil {
				passed[ev.Package] = map[string]*testRun{}
			}
			if r.secs = ev.Elapsed; passed[ev.Package][ev.Test] == nil || passed[ev.Package][ev.Test].secs < r.secs {
				passed[ev.Package][ev.Test] = r
			}
		case "fail":
			if ev.Test != "" {
				testFailed[ev.Package] = true
			}
			if ev.Test != "" || !testFailed[ev.Package] {
				failed = append(failed, r)
			}
		}
	}
	return failed, sc.Err()
}
