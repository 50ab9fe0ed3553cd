package experiments

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenPath is the checked-in output of `paperrepro -exp all` at the
// default seed.
const goldenPath = "../../docs/exhibits.txt"

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from the serial seed-42 run")

// TestRunAllMatchesSerial regenerates every exhibit serially and on a
// wide worker pool and requires byte-identical renders in identical
// order — the paperrepro -parallel guarantee. The serial run, printed
// the way paperrepro prints it, must also match docs/exhibits.txt byte
// for byte (`make exhibits` rewrites the file).
func TestRunAllMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full exhibit suite is slow")
	}
	ids := IDs()
	serial, err := RunAll(ids, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, serial)
	par, err := RunAll(ids, 42, 2*runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(serial) {
		t.Fatalf("parallel returned %d results, serial %d", len(par), len(serial))
	}
	for i, id := range ids {
		if serial[i].ID() != id || par[i].ID() != id {
			t.Fatalf("result %d: ids %q/%q, want %q (order must match input)", i, serial[i].ID(), par[i].ID(), id)
		}
		if par[i].Render() != serial[i].Render() {
			t.Errorf("exhibit %s: parallel render differs from serial", id)
		}
	}
}

// checkGolden compares results, rendered as paperrepro prints them (a
// separator line, then each Render, each followed by a newline), with
// the golden file, or rewrites the file under -update.
func checkGolden(t *testing.T, results []Result) {
	t.Helper()
	var b strings.Builder
	for _, res := range results {
		b.WriteString(strings.Repeat("=", 80) + "\n")
		b.WriteString(res.Render() + "\n")
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d (run `make exhibits` if the change is intended):\n got: %s\nwant: %s",
				goldenPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: %d lines, want %d (run `make exhibits` if the change is intended)",
		goldenPath, len(gl), len(wl))
}

// TestRunAllFirstErrorInIDOrder checks that the reported error is the
// earliest failing id in the input order, not whichever worker failed
// first, and that successful results are still returned.
func TestRunAllFirstErrorInIDOrder(t *testing.T) {
	ids := []string{"no-such-exhibit-b", "table5", "no-such-exhibit-a"}
	results, err := RunAll(ids, 7, 3)
	if err == nil {
		t.Fatal("want error for unknown exhibits")
	}
	if !strings.Contains(err.Error(), "no-such-exhibit-b") {
		t.Errorf("err = %v, want the earliest failing id (no-such-exhibit-b)", err)
	}
	if results[1] == nil || results[1].ID() != "table5" {
		t.Errorf("successful exhibit not returned alongside the error")
	}
}

func TestRunAllClampsParallelism(t *testing.T) {
	for _, p := range []int{-1, 0, 1, 1000} {
		results, err := RunAll([]string{"table5"}, 7, p)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if len(results) != 1 || results[0].ID() != "table5" {
			t.Fatalf("parallelism %d: bad results %v", p, results)
		}
	}
	if res, err := RunAll(nil, 7, 4); err != nil || res != nil {
		t.Fatalf("empty ids: %v, %v", res, err)
	}
}
