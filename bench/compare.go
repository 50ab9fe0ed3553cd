package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
)

type verdict string

const (
	improved    verdict = "improved"
	withinBound verdict = "within bound"
	regressed   verdict = "regressed"
	// unresolved: the runs of one side spread wider than the bound, so
	// the medians cannot say whether the metric moved.
	unresolved verdict = "unresolved"
)

// comparison is one (workload, metric) row of a -compare report.
type comparison struct {
	Workload, Metric string
	Old, New         float64 // medians over each file's runs
	// Worse is the change as a share of Old, signed so that positive is
	// worse whichever way the metric points.
	Worse   float64
	Spread  float64 // the larger of the two files' IQR / median
	Bound   float64
	Verdict verdict
}

func byWorkload(runs []runResult) map[string][]runResult {
	m := map[string][]runResult{}
	for _, r := range runs {
		m[r.Workload] = append(m[r.Workload], r)
	}
	return m
}

func values(runs []runResult, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// compareRuns judges every end-to-end metric of every workload present
// in both sets of runs against its bound.
func compareRuns(spec *benchSpec, oldRuns, newRuns []runResult) []comparison {
	olds, news := byWorkload(oldRuns), byWorkload(newRuns)
	var rows []comparison
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			ov, nv := values(olds[w.name], m.Name), values(news[w.name], m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			c := comparison{Workload: w.name, Metric: m.Name, Old: median(ov), New: median(nv), Bound: m.Bound}
			c.Worse = (c.New - c.Old) / c.Old
			higherIsBetter := m.Better == "higher"
			if higherIsBetter {
				c.Worse = -c.Worse
			}
			c.Spread = math.Max(iqr(ov)/c.Old, iqr(nv)/c.New)
			switch {
			case c.Spread > c.Bound:
				c.Verdict = unresolved
				if everyRunBetter(ov, nv, higherIsBetter) {
					c.Verdict = improved
				}
			case c.Worse > c.Bound:
				c.Verdict = regressed
			case c.Worse < 0 && -c.Worse > c.Spread && len(ov) > 1 && len(nv) > 1:
				// (A single run has no spread to be better than.)
				c.Verdict = improved
			default:
				c.Verdict = withinBound
			}
			rows = append(rows, c)
		}
	}
	return rows
}

// everyRunBetter reports whether every new run reads better than every
// old run, the one case in which a spread wider than the bound still
// resolves.
func everyRunBetter(old, new []float64, higherIsBetter bool) bool {
	so, sn := sortedCopy(old), sortedCopy(new)
	if higherIsBetter {
		return sn[0] > so[len(so)-1]
	}
	return sn[len(sn)-1] < so[0]
}

func failRatio(runs []runResult) float64 {
	var failed, ops int
	for _, r := range runs {
		failed += r.Failed
		ops += r.Ops
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}

// digestsBySeed collects the exhibit digests of a set of runs; the
// digest strings carry their seed.
func digestsBySeed(runs []runResult) map[string]bool {
	m := map[string]bool{}
	for _, r := range runs {
		for _, d := range r.Digests {
			m[d] = true
		}
	}
	return m
}

func printComparison(rows []comparison) {
	fmt.Printf("%-12s %-20s %12s %12s %9s %8s %6s  %s\n", "workload", "metric", "old", "new", "worse", "spread", "bound", "verdict")
	for _, c := range rows {
		fmt.Printf("%-12s %-20s %12.4f %12.4f %+8.1f%% %7.1f%% %5.0f%%  %s\n",
			c.Workload, c.Metric, c.Old, c.New, 100*c.Worse, 100*c.Spread, 100*c.Bound, c.Verdict)
	}
}

func compareCmd(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare old.json new.json")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	oldRep, err := readReport(args[0])
	if err != nil {
		return err
	}
	newRep, err := readReport(args[1])
	if err != nil {
		return err
	}
	if oldRep.Seconds != newRep.Seconds || oldRep.OpsScale != newRep.OpsScale {
		return fmt.Errorf("not comparable: %s ran -seconds %d -ops-scale %g, %s ran -seconds %d -ops-scale %g",
			args[0], oldRep.Seconds, oldRep.OpsScale, args[1], newRep.Seconds, newRep.OpsScale)
	}
	if !reflect.DeepEqual(oldRep.Env, newRep.Env) {
		fmt.Printf("note: environments differ\n  old: %+v\n  new: %+v\n", oldRep.Env, newRep.Env)
	}
	rows := compareRuns(spec, oldRep.Runs, newRep.Runs)
	printComparison(rows)
	bad := 0
	for _, c := range rows {
		if c.Verdict == regressed {
			bad++
		}
	}
	olds, news := byWorkload(oldRep.Runs), byWorkload(newRep.Runs)
	for _, w := range workloads {
		if fo, fn := failRatio(olds[w.name]), failRatio(news[w.name]); fn > fo {
			fmt.Printf("%-12s fail_ratio %g -> %g  regressed\n", w.name, fo, fn)
			bad++
		}
	}
	od, nd := digestsBySeed(oldRep.Runs), digestsBySeed(newRep.Runs)
	for d := range nd {
		if len(od) > 0 && !od[d] {
			fmt.Printf("exhibits     digest not in the old file: %s\n", d)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions", bad)
	}
	return nil
}

// selfcheckCmd runs the four workloads twice, back to back, on the same
// seed, and fails unless the two sets agree: every end-to-end metric
// within its bound in either direction, no failed op, equal digests.
func selfcheckCmd(o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = spec.RunSeconds
	}
	printEnv(readEnvironment(), o)
	var sets [2][]runResult
	for i := range sets {
		for _, w := range workloads {
			res, err := measure(w, o.seed, o.opsFor(w))
			if err != nil {
				return err
			}
			sets[i] = append(sets[i], res)
		}
	}
	rows := compareRuns(spec, sets[0], sets[1])
	printComparison(rows)
	bad := 0
	for _, c := range rows {
		if math.Abs(c.Worse) > c.Bound {
			fmt.Printf("DISAGREE %s %s: %.4f vs %.4f is beyond the %.0f%% bound\n", c.Workload, c.Metric, c.Old, c.New, 100*c.Bound)
			bad++
		}
	}
	for i, set := range sets {
		for _, r := range set {
			if r.Failed > 0 {
				fmt.Printf("FAILED set %d %s: %d of %d ops: %v\n", i+1, r.Workload, r.Failed, r.Ops, r.Errors)
				bad++
			}
		}
	}
	if a, b := digestsBySeed(sets[0]), digestsBySeed(sets[1]); !reflect.DeepEqual(a, b) {
		fmt.Printf("DISAGREE exhibits digests: %v vs %v\n", a, b)
		bad++
	} else {
		for _, d := range sets[0][len(sets[0])-1].Digests {
			fmt.Printf("exhibits digest, both sets: %s\n", d)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", bad)
	}
	fmt.Println("selfcheck: the two sets agree within every bound; fail_ratio 0 on all four workloads")
	return nil
}
