package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// exactLayerCounts are the per-layer metrics that must read the same on two
// traced runs of one seed.
var exactLayerCounts = []string{
	"sched.tasks_per_op", "sched.local_msgs_per_op", "sched.remote_msgs_per_op",
	"core.cycles_per_op", "core.mark_tasks_per_op", "core.return_tasks_per_op",
	"graph.vertex_allocs_per_op", "graph.reclaimed_per_op",
	"reduce.reduction_tasks_per_op", "gm.reduction_tasks_per_op",
}

// runSelf runs this binary in a fresh process and parses its report line.
func runSelf(args ...string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("report line: %w", err)
	}
	return &rep, nil
}

// quartiles are the cut points of Python's statistics.quantiles(xs, n=4),
// the estimator the driver applies to its ten runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	m := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// selfCheck is the benchmark's test of itself: every workload n times in
// fresh processes, each with another seed, then the same again. It prints
// the runs and fails if a set is spread wider than a metric's bound or the
// two sets' medians differ by more than half of it; then it makes two
// traced runs of one seed and fails if an exact counter differs.
func selfCheck(out io.Writer, n, seconds int, quick bool) error {
	if n < 2 {
		return fmt.Errorf("-selfcheck needs at least 2 runs a set")
	}
	common := []string{"-seconds", strconv.Itoa(seconds)}
	if quick {
		common = append(common, "-quick")
	}
	run := func(w *workload, seed, traced int) (*report, error) {
		return runSelf(append([]string{"-workload", w.name, "-seed", strconv.Itoa(seed), "-trace", strconv.Itoa(traced)}, common...)...)
	}
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				rep, err := run(w, 1+s*n+i, 0)
				if err != nil {
					return err
				}
				for name, v := range rep.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		fmt.Fprintf(out, "\n%s: 2 sets of %d runs, seeds 1-%d and %d-%d\n", w.name, n, n, n+1, 2*n)
		fmt.Fprintf(out, "%-16s %-3s %12s %12s %12s %8s %8s %8s  %s\n",
			"metric", "set", "q1", "median", "q3", "iqr/med", "rng/med", "bound", "runs")
		for _, d := range endToEnd {
			var med [2]float64
			for s := range sets {
				xs := sets[s][d.Name]
				q1, q2, q3 := quartiles(xs)
				med[s] = q2
				spread := (q3 - q1) / q2
				note := ""
				switch {
				case spread > d.Bound && d.Name != "setup_s": // the driver lets setup_s spread
					note = "  SPREAD > BOUND"
					bad++
				case spread > d.Bound/3:
					note = "  (spread > bound/3)"
				}
				fmt.Fprintf(out, "%-16s %-3d %12.6g %12.6g %12.6g %8.4f %8.4f %8.3f  %s%s\n",
					d.Name, s+1, q1, q2, q3, spread, (slices.Max(xs)-slices.Min(xs))/q2, d.Bound, fmtRuns(xs), note)
			}
			if apart := math.Abs(med[1]-med[0]) / med[0]; apart > d.Bound/2 {
				fmt.Fprintf(out, "%-16s medians differ by %.4f > bound/2 = %.4f  FAIL\n", d.Name, apart, d.Bound/2)
				bad++
			}
		}

		first, err := run(w, defaultSeed, 1)
		if err != nil {
			return err
		}
		second, err := run(w, defaultSeed, 1)
		if err != nil {
			return err
		}
		same := true
		for _, name := range exactLayerCounts {
			if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b {
				fmt.Fprintf(out, "%s: %v then %v on the same seed  FAIL\n", name, a, b)
				same = false
				bad++
			}
		}
		if same {
			fmt.Fprintf(out, "exact counters identical on two traced runs of seed %d (%s)\n",
				defaultSeed, strings.Join(exactLayerCounts, ", "))
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d checks failed", bad)
	}
	fmt.Fprintln(out, "\nselfcheck: ok")
	return nil
}

func fmtRuns(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return strings.Join(parts, " ")
}
