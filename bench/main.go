// Command gftpbench is the repository's benchmark: four workloads, the
// end-to-end metrics BENCHMARK.json bounds, and a per-layer ledger
// measured from outside the engine. See README.md.
//
//	go run -C bench gftpvc/bench                      all four workloads
//	go run -C bench gftpvc/bench -workload bulk_retr  one workload; last line is the result object
//	go run -C bench gftpvc/bench -workload bulk_retr -trace 1   traced run + per-layer metrics
//	go run -C bench gftpvc/bench -layers              layer microbenchmarks, >= 10 samples each
//	go run -C bench gftpvc/bench -runs 5 -out new.json
//	go run -C bench gftpvc/bench -compare old.json new.json
//	go run -C bench gftpvc/bench -selfcheck
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

const schemaVersion = "gftpbench/1"

// extraSetups is how many set-up-only child processes run beside the
// measured one; setup_s is the median of all of them.
const extraSetups = 2

// tracedOpsDivisor shrinks the op count of a traced run and of the
// untraced run it is compared with.
const tracedOpsDivisor = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	opsScale float64
	runs     int
	out      string
}

func main() {
	var (
		o         options
		layers    = flag.Bool("layers", false, "run the layer microbenchmarks alone, at least ten samples each")
		compare   = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run the four workloads twice and fail unless the two sets agree within the bounds")
		child     = flag.String("child", "", "internal: run one part in this process (run, setup, traced, layers-live, layers-sim)")
		ops       = flag.Int("ops", 0, "internal: op count of a child")
		quick     = flag.Bool("quick", false, "internal: a layers child takes the reduced sample counts of a -trace 1 run")
	)
	flag.StringVar(&o.workload, "workload", "", "run one workload (bulk_retr, bulk_stor, small_files, exhibits); default all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed for payload bytes, object order and exhibit seeds")
	flag.IntVar(&o.seconds, "seconds", 0, "nominal length of a run; op counts are fixed at opsPerSecond x seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics only; 1: traced runs and per-layer metrics only; default both")
	flag.Float64Var(&o.opsScale, "ops-scale", 1, "scale every op count, for local smoke runs; stamped in the output, never comparable with a full run")
	flag.IntVar(&o.runs, "runs", 1, "runs per workload, with seeds seed..seed+runs-1")
	flag.StringVar(&o.out, "out", "", "write the report (schema "+schemaVersion+") to this file")
	flag.Parse()

	var err error
	switch {
	case *child != "":
		err = runChild(*child, o, *ops, *quick)
	case *compare:
		err = compareCmd(flag.Args())
	case *selfcheck:
		err = selfcheckCmd(o)
	case *layers:
		err = layersCmd()
	default:
		err = benchCmd(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gftpbench:", err)
		os.Exit(1)
	}
}

// errFailed reports that ops failed or were wrong; the result has been
// printed by then.
var errFailed = errors.New("operations failed or delivered wrong bytes")

// ---- child side ----

// runChild runs one part in this (fresh) process and prints its result
// as one JSON object.
func runChild(part string, o options, ops int, quick bool) error {
	var out any
	switch part {
	case "run", "setup", "traced":
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		res, err := runWorkload(w, o.seed, ops, part == "traced", part == "setup")
		if err != nil {
			return err
		}
		out = res
	case "layers-live":
		m, err := liveLayers(quick)
		if err != nil {
			return err
		}
		out = m
	case "layers-sim":
		m, err := simLayers(quick)
		if err != nil {
			return err
		}
		out = m
	default:
		return fmt.Errorf("unknown part %q", part)
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// ---- parent side ----

// spawn runs one part in a fresh child process and decodes what it
// prints. The child's standard error passes through.
func spawn(out any, part string, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, append([]string{"-child", part}, args...)...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s child: %w", part, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return fmt.Errorf("%s child printed no result: %w", part, err)
	}
	return nil
}

func spawnRun(part string, w *workload, seed int64, ops int) (runResult, error) {
	var res runResult
	err := spawn(&res, part, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10), "-ops", strconv.Itoa(ops))
	return res, err
}

func (o options) opsFor(w *workload) int {
	n := int(math.Round(w.opsPerSecond * float64(o.seconds) * o.opsScale))
	if n < 1 {
		n = 1
	}
	return n
}

// measure is one measured run: the timed child, and setup_s as the
// median over it and extraSetups set-up-only children.
func measure(w *workload, seed int64, ops int) (runResult, error) {
	if !w.live {
		return spawnRun("run", w, seed, ops)
	}
	var setups []float64
	for i := 0; i < extraSetups; i++ {
		res, err := spawnRun("setup", w, seed, ops)
		if err != nil {
			return res, err
		}
		setups = append(setups, res.Metrics["setup_s"])
	}
	res, err := spawnRun("run", w, seed, ops)
	if err != nil {
		return res, err
	}
	res.Metrics["setup_s"] = median(append(setups, res.Metrics["setup_s"]))
	return res, nil
}

// tracedPair runs one workload untraced and traced, each at a fifth of
// the op count and in a fresh child; the difference between the two is
// the tracing overhead. It returns the untraced run, with the traced
// run's ops and failures added, and the proc.* and trace.* figures.
func tracedPair(w *workload, seed int64, ops int) (runResult, map[string]float64, error) {
	ops = (ops + tracedOpsDivisor - 1) / tracedOpsDivisor
	ref, err := spawnRun("run", w, seed, ops)
	if err != nil {
		return ref, nil, err
	}
	m := map[string]float64{}
	for k, v := range ref.Proc {
		m[k] = v
	}
	for _, k := range traceMetricNames {
		m[k] = 0
	}
	if !w.live {
		// Nothing of the simulator half passes through a boundary the
		// harness owns: all of an op is the program's own time.
		m["trace.engine_residual_share"] = 1
		return ref, m, nil
	}
	tr, err := spawnRun("traced", w, seed, ops)
	if err != nil {
		return tr, nil, err
	}
	for k, v := range tr.Trace {
		m[k] = v
	}
	m["trace.overhead_pct"] = 100 * (1 - tr.Metrics["goodput_MBps"]/ref.Metrics["goodput_MBps"])
	ref.Failed += tr.Failed
	ref.Ops += tr.Ops
	ref.Errors = append(ref.Errors, tr.Errors...)
	return ref, m, nil
}

func allLayers(quick bool) (map[string]layerStat, error) {
	m := map[string]layerStat{}
	for _, part := range []string{"layers-live", "layers-sim"} {
		var got map[string]layerStat
		args := []string{}
		if quick {
			args = append(args, "-quick")
		}
		if err := spawn(&got, part, args...); err != nil {
			return nil, err
		}
		for k, v := range got {
			m[k] = v
		}
	}
	return m, nil
}

// traceMetricNames are the trace.* per-layer metrics; a workload that
// cannot be traced from outside reports them as 0 (residual as 1).
var traceMetricNames = []string{
	"trace.store_share", "trace.sink_share", "trace.conn_data_share", "trace.conn_ctrl_share",
	"trace.engine_residual_share",
	"trace.server_phase.data_setup_ms", "trace.server_phase.stream_ms", "trace.server_phase.teardown_ms",
	"trace.data_conn_calls_per_MiB", "trace.overhead_pct",
}

// contractResult is the last line of standard output of a -workload run.
type contractResult struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchCmd runs the selected workloads: their end-to-end metrics
// (unless -trace 1), then their traced runs and the layer
// microbenchmarks (unless -trace 0).
func benchCmd(o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	if o.seconds < 1 || o.opsScale <= 0 || o.runs < 1 {
		return errors.New("-seconds, -ops-scale and -runs must be positive")
	}
	selected := workloads
	if o.workload != "" {
		w := findWorkload(o.workload)
		if w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []*workload{w}
	}
	rep := newReport(o)
	printEnv(rep.Env, o)

	failed := false
	var last contractResult
	note := func(res runResult, metrics map[string]float64) {
		failed = failed || res.Failed > 0
		last = contractResult{Correct: res.Failed == 0, Attempted: res.Ops, Failed: res.Failed, Metrics: map[string]contractMetric{}}
		for name, v := range metrics {
			last.Metrics[name] = contractMetric{v, spec.unitOf(name)}
		}
	}
	if o.trace != 1 {
		for _, w := range selected {
			for run := 0; run < o.runs; run++ {
				res, err := measure(w, o.seed+int64(run), o.opsFor(w))
				if err != nil {
					return err
				}
				printRun(w, res, spec)
				rep.Runs = append(rep.Runs, res)
				note(res, res.Metrics)
			}
		}
	}
	if o.trace != 0 {
		layers, err := allLayers(true)
		if err != nil {
			return err
		}
		for _, w := range selected {
			res, m, err := tracedPair(w, o.seed, o.opsFor(w))
			if err != nil {
				return err
			}
			fmt.Printf("\n== %s  traced  seed=%d ops=%d failed=%d\n", w.name, res.Seed, res.Ops, res.Failed)
			for _, e := range res.Errors {
				fmt.Printf("   error: %s\n", e)
			}
			printSorted(m, spec.unitOf)
			for k, v := range layers {
				m[k] = v.Median
			}
			note(res, m)
		}
		fmt.Printf("\n== layers  (median of 5 / 3 / 1 samples; -layers takes 10)\n")
		printLayers(layers, spec.unitOf)
	}
	if o.out != "" {
		if err := rep.write(o.out); err != nil {
			return err
		}
	}
	if o.workload != "" {
		// The contract line: the result of the last run of the one
		// workload asked for.
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return errFailed
	}
	return nil
}

func layersCmd() error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	printEnv(readEnvironment(), options{opsScale: 1})
	m, err := allLayers(false)
	if err != nil {
		return err
	}
	printLayers(m, spec.unitOf)
	return nil
}

// ---- printing ----

func printEnv(e environment, o options) {
	fmt.Printf("# gftpbench %s  cpu=%q nproc=%d GOMAXPROCS=%d %s commit=%s transport=%q\n",
		schemaVersion, e.CPU, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Transport)
	if o.opsScale != 1 {
		fmt.Printf("# ops-scale %g: a smoke run, not comparable with a full run\n", o.opsScale)
	}
}

func printRun(w *workload, res runResult, spec *benchSpec) {
	fmt.Printf("\n== %s  seed=%d ops=%d failed=%d fail_ratio=%g\n", w.name, res.Seed, res.Ops, res.Failed, float64(res.Failed)/float64(res.Ops))
	for _, e := range res.Errors {
		fmt.Printf("   error: %s\n", e)
	}
	for _, m := range spec.EndToEnd {
		v, ok := res.Metrics[m.Name]
		if !ok {
			continue
		}
		note := ""
		if m.Name == "op_tail_ms" {
			note = "  (" + res.Tail + ")"
		}
		fmt.Printf("   %-24s %14.4f %-6s bound %2.0f%%%s\n", m.Name, v, m.Unit, m.Bound*100, note)
	}
	printSorted(res.Proc, spec.unitOf)
	for _, d := range res.Digests {
		fmt.Printf("   digest %s\n", d)
	}
}

func printLayers(m map[string]layerStat, unitOf func(string) string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("   %-44s %16s %14s %3s\n", "metric", "median", "IQR", "n")
	for _, k := range names {
		fmt.Printf("   %-44s %16.4f %14.4f %3d %s\n", k, m[k].Median, m[k].IQR, m[k].N, unitOf(k))
	}
}

func printSorted(m map[string]float64, unitOf func(string) string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-44s %16.4f %s\n", k, m[k], unitOf(k))
	}
}
