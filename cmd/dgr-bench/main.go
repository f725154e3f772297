// Command dgr-bench regenerates the experiment tables of EXPERIMENTS.md:
// one per figure/scenario of the paper plus the quantitative evaluation of
// its claims.
//
// Usage:
//
//	dgr-bench                 # run everything
//	dgr-bench -exp thm1,race  # run a subset
//	dgr-bench -quick          # small workloads (smoke test)
//	dgr-bench -list           # list experiment IDs
//	dgr-bench -json           # parallel and serving benchmark suite as JSON
//	dgr-bench -json -quick    # same, one iteration per case (CI smoke)
//	dgr-bench -obscheck       # gate obs/tracing overhead at -obslimit (CI guard)
//
// -json replaces the experiment tables with the internal/bench suite (the
// parallel fib PE sweep on both engines, and serving-layer throughput) and
// emits a machine-readable report on stdout; BENCH_0.json and BENCH_1.json
// at the repo root are earlier reports in this format, kept as history.
// Seeded evaluations and collector cycles are measured by the repository
// benchmark (benchmark/), and the instrumentation overhead by -obscheck.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dgr/internal/bench"
	"dgr/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dgr-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		which    = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		quick    = flag.Bool("quick", false, "shrink workloads")
		seed     = flag.Int64("seed", 7, "workload seed")
		list     = flag.Bool("list", false, "list experiment IDs")
		jsonR    = flag.Bool("json", false, "run the parallel and serving benchmark suite, emit JSON report")
		cpus     = flag.String("cpu", "", "comma-separated GOMAXPROCS values to sweep the -json suite over (e.g. 1,2,4)")
		obscheck = flag.Bool("obscheck", false, "A/B-gate the obs + tracing overhead against the uninstrumented machine")
		obslimit = flag.Float64("obslimit", 1.05, "maximum instrumented/base ns-per-op ratio for -obscheck")
		obsreps  = flag.Int("obsreps", 3, "A/B repetitions per -obscheck pair (best rep on each side counts)")
	)
	flag.Parse()

	if *obscheck {
		return obsCheck(*obsreps, *obslimit)
	}

	if *jsonR {
		var sweep []int
		if *cpus != "" {
			for _, s := range strings.Split(*cpus, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil || v < 1 {
					return fmt.Errorf("bad -cpu value %q", s)
				}
				sweep = append(sweep, v)
			}
		}
		rep, err := bench.RunSweep(*quick, sweep)
		if err != nil {
			return err
		}
		return rep.WriteJSON(os.Stdout)
	}
	if *cpus != "" {
		return fmt.Errorf("-cpu only applies to the -json suite")
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-11s %s\n", e.ID, e.Title)
		}
		return nil
	}

	var selected []exp.Experiment
	if *which == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*which, ",") {
			e, ok := exp.Get(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (ids: %s)",
					id, strings.Join(exp.IDs(), ", "))
			}
			selected = append(selected, e)
		}
	}

	cfg := exp.Config{Quick: *quick, Seed: *seed}
	failures := 0
	for _, e := range selected {
		tbl, err := e.Run(cfg)
		if tbl != nil {
			tbl.Fprint(os.Stdout)
		}
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "EXPERIMENT FAILED %s: %v\n", e.ID, err)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d experiment(s) failed", failures)
	}
	return nil
}

// obsCheck is the CI overhead guard: interleaved A/B pairs of the
// uninstrumented machine against obs-on and tracing-armed, best of reps
// repetitions on each side. Exits nonzero when any gated configuration
// costs more than limit× its uninstrumented partner.
func obsCheck(reps int, limit float64) error {
	pairs, err := bench.ObsOverhead(reps)
	if err != nil {
		return err
	}
	over := 0
	for _, p := range pairs {
		verdict := "info only"
		if p.Gated {
			verdict = "ok"
			if p.Ratio > limit {
				verdict = "OVER LIMIT"
				over++
			}
		}
		fmt.Printf("%-40s base %.3f..%.3fms  instrumented %.3f..%.3fms  ratio %.3f (best of %d per side)  %s\n",
			p.Name, float64(p.BaseNs)/1e6, float64(p.BaseMax)/1e6,
			float64(p.WithNs)/1e6, float64(p.WithMax)/1e6, p.Ratio, p.Samples, verdict)
	}
	if over > 0 {
		return fmt.Errorf("%d configuration(s) exceed the %.0f%% overhead budget",
			over, (limit-1)*100)
	}
	return nil
}
