// Command dgr-run evaluates a program on the distributed graph-reduction
// machine and prints the result and run statistics.
//
// Usage:
//
//	dgr-run [flags] -e 'let fib n = ... in fib 20'
//	dgr-run [flags] program.dgr
//	dgr-run -list                  # show the builtin program corpus and the experiments
//	dgr-run -name fib              # run a corpus program
//	dgr-run -exp all               # regenerate every experiment table of EXPERIMENTS.md
//	dgr-run -exp thm1,pes -quick   # some of them, on small workloads (smoke test)
//
// -exp runs the experiments of internal/exp, seeded with expSeed, and exits
// non-zero when one fails its own checks.
//
// With -http the machine's observability layer is exposed live:
//
//	dgr-run -parallel -http :8080 -linger 30s -name fib
//	curl localhost:8080/metrics              # Prometheus text exposition
//	curl localhost:8080/debug/snapshot.json  # machine digest: counters, gauges, per-PE pools, executions, busy time
//	curl localhost:8080/debug/graph.dot      # computation graph (Graphviz)
//	curl localhost:8080/debug/spans.jsonl    # chrome://tracing span export
//	curl localhost:8080/debug/flight.jsonl   # flight-recorder ring
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dgr"
	"dgr/internal/exp"
	"dgr/internal/serve"
	"dgr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dgr-run:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		pes       = flag.Int("pes", 4, "number of processing elements")
		parallel  = flag.Bool("parallel", false, "run PEs as goroutines (default: deterministic)")
		engine    = flag.String("engine", dgr.EngineInterp, "reduction engine: interp or compiled")
		seed      = flag.Int64("seed", 1, "deterministic scheduling seed")
		spec      = flag.Bool("spec", false, "speculatively evaluate if branches")
		mtEvery   = flag.Int("mtevery", 4, "run deadlock detection every k-th GC cycle (0 = never)")
		expr      = flag.String("e", "", "program text to evaluate")
		name      = flag.String("name", "", "run a named corpus program")
		list      = flag.Bool("list", false, "list corpus programs and experiments")
		stats     = flag.Bool("stats", true, "print run statistics")
		timeout   = flag.Duration("timeout", 30*time.Second, "parallel evaluation timeout")
		obsOn     = flag.Bool("obs", false, "enable the observability layer")
		httpAddr  = flag.String("http", "", "serve /metrics and /debug/* on this address (implies -obs)")
		linger    = flag.Duration("linger", 0, "keep serving -http for this long after the eval finishes")
		spansOut  = flag.String("spans", "", "write chrome://tracing span JSONL to this file (implies -obs)")
		flightDir = flag.String("flightdir", "", "dump the flight recorder here when the eval fails (implies -obs)")
		exps      = flag.String("exp", "", "run experiments instead: comma-separated IDs, or 'all'")
		quick     = flag.Bool("quick", false, "shrink the -exp workloads")
	)
	flag.Parse()

	if *list {
		names := make([]string, 0, len(workload.Programs))
		for n := range workload.Programs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-12s => %d\n", n, workload.Programs[n].Want)
		}
		fmt.Println("experiments (-exp):")
		for _, e := range exp.All() {
			fmt.Printf("  %-11s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *exps != "" {
		return runExperiments(*exps, *quick)
	}

	src := *expr
	switch {
	case src != "":
	case *name != "":
		p, ok := workload.Programs[*name]
		if !ok {
			return fmt.Errorf("unknown corpus program %q (try -list)", *name)
		}
		src = p.Src
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	default:
		return fmt.Errorf("nothing to run: use -e, -name, or a file argument")
	}

	mtCfg := *mtEvery
	if mtCfg == 0 {
		mtCfg = -1 // Options treats 0 as "default"; negative disables
	}
	m := dgr.New(dgr.Options{
		PEs:           *pes,
		Parallel:      *parallel,
		Engine:        *engine,
		Seed:          *seed,
		SpeculativeIf: *spec,
		MTEvery:       mtCfg,
		Timeout:       *timeout,
		Obs:           *obsOn || *httpAddr != "" || *spansOut != "" || *flightDir != "",
	})
	defer m.Close()

	ctx, stopSignals := serve.SignalContext(context.Background())
	defer stopSignals()
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("-http: %w", err)
		}
		fmt.Printf("serving observability on http://%s\n", ln.Addr())
		stopHTTP := serve.StartHTTP(ln, obsMux(m), func(err error) {
			fmt.Fprintln(os.Stderr, "dgr-run: -http:", err)
		})
		defer stopHTTP(2 * time.Second)
	}

	start := time.Now()
	v, err := m.Eval(src)
	elapsed := time.Since(start)
	if err != nil && *flightDir != "" {
		// The flight dump is a failed evaluation's evidence.
		var dump bytes.Buffer
		m.WriteFlightJSONL(&dump) // -flightdir implies -obs
		path := filepath.Join(*flightDir, fmt.Sprintf("dgr-flight-%d.jsonl", time.Now().UnixNano()))
		if werr := os.WriteFile(path, dump.Bytes(), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "dgr-run: -flightdir:", werr)
		}
	}
	if werr := writeSpans(m, *spansOut); werr != nil {
		fmt.Fprintln(os.Stderr, "dgr-run: -spans:", werr)
	}
	if *httpAddr != "" && *linger > 0 {
		fmt.Printf("lingering %s for scrapes (SIGINT to stop early)...\n", *linger)
		select {
		case <-time.After(*linger):
		case <-ctx.Done():
			fmt.Println("interrupted; shutting down")
		}
	}
	if err != nil {
		if dead := m.Deadlocked(); len(dead) > 0 {
			fmt.Printf("deadlocked vertices: %v\n", dead)
		}
		return err
	}
	fmt.Printf("result: %s\n", v)
	if *stats {
		s := m.Stats()
		fmt.Printf("elapsed: %s\n", elapsed)
		fmt.Printf("stats: %s\n", s)
		fmt.Printf("heap: %d vertices, %d free\n", m.TotalVertices(), m.FreeVertices())
	}
	return nil
}

// expSeed drives the experiments' randomized workloads: every table of
// EXPERIMENTS.md was made with it.
const expSeed = 7

// runExperiments prints the tables of the named experiments (or all) and
// fails if any experiment's own checks failed.
func runExperiments(ids string, quick bool) error {
	selected := exp.All()
	if ids != "all" {
		selected = nil
		for _, id := range strings.Split(ids, ",") {
			e, ok := exp.Get(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (ids: %s)", id, strings.Join(exp.IDs(), ", "))
			}
			selected = append(selected, e)
		}
	}
	failures := 0
	for _, e := range selected {
		tbl, err := e.Run(exp.Config{Quick: quick, Seed: expSeed})
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

// obsMux routes the live exposition endpoints. Every handler renders from
// the machine's current state at request time.
func obsMux(m *dgr.Machine) *http.ServeMux {
	mux := http.NewServeMux()
	serve := func(path, contentType string, fn func(w http.ResponseWriter) error) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", contentType)
			if err := fn(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
	}
	serve("/metrics", "text/plain; version=0.0.4",
		func(w http.ResponseWriter) error { return m.WritePrometheus(w) })
	serve("/debug/snapshot.json", "application/json",
		func(w http.ResponseWriter) error { return m.WriteSnapshotJSON(w) })
	serve("/debug/graph.dot", "text/vnd.graphviz",
		func(w http.ResponseWriter) error { return m.WriteGraphDOT(w) })
	serve("/debug/spans.jsonl", "application/jsonl",
		func(w http.ResponseWriter) error { return m.WriteSpansJSONL(w) })
	serve("/debug/flight.jsonl", "application/jsonl",
		func(w http.ResponseWriter) error { return m.WriteFlightJSONL(w) })
	return mux
}

func writeSpans(m *dgr.Machine, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.WriteSpansJSONL(f)
}
