package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the harness reads back: the
// metric names with their units, directions and bounds. The file is the
// single place a bound is written down.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repoRoot is where BENCHMARK.json lives, seen from the directory the
// benchmark runs in: bench/ itself under `go run -C bench`.
func repoRoot() (string, error) {
	for _, dir := range []string{"..", "."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in .. or .: run from bench/ (go run -C bench gftpvc/bench)")
}

func loadSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) unitOf(name string) string {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// ---- environment stamp and report file ----

type environment struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Transport  string `json:"transport"`
}

func readEnvironment() environment {
	e := environment{
		CPU:        "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Transport:  "loopback TCP",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if root, err := repoRoot(); err == nil {
		e.Commit = gitHead(filepath.Join(root, ".git"))
	}
	return e
}

// gitHead resolves HEAD by reading the git directory, so that the stamp
// needs no git binary; a checkout that is not a repository is "unknown".
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	if packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// report is the versioned file -out writes and -compare reads.
type report struct {
	Schema   string      `json:"schema"`
	Env      environment `json:"env"`
	Seconds  int         `json:"seconds"`
	OpsScale float64     `json:"ops_scale"`
	Runs     []runResult `json:"runs"`
}

func newReport(o options) *report {
	return &report{Schema: schemaVersion, Env: readEnvironment(), Seconds: o.seconds, OpsScale: o.opsScale}
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != schemaVersion {
		return nil, fmt.Errorf("%s: schema %q, this harness reads %q", path, r.Schema, schemaVersion)
	}
	return &r, nil
}
