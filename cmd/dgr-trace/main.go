// Command dgr-trace runs a program (or a builtin scenario) and emits a
// Graphviz DOT rendering of the computation graph, with deadlocked
// vertices highlighted — the tool for visually reproducing the paper's
// figures. With -jsonl it instead emits the machine's event trace
// (including the fabric message lifecycle) as JSON Lines.
//
// With -analyze it switches to lineage mode: read an assembled trace
// document (a /debug/traces.json URL, a file, or "-" for stdin), rebuild
// each trace's spawn DAG from its raw spans, and print the critical path
// with per-category blame (exec / queue / steal / fabric / gc / serve).
// With -lineage it runs the given program under full head sampling and
// analyzes the resulting traces directly.
//
// Usage:
//
//	dgr-trace -e 'let x = x + 1 in x' > graph.dot
//	dgr-trace -scenario fig32 > fig32.dot
//	dgr-trace -e '1+2' -phase before > before.dot
//	dgr-trace -e 'fib...' -fabric -drop 0.1 -jsonl > events.jsonl
//	dgr-trace -analyze http://127.0.0.1:8091/debug/traces.json
//	dgr-trace -e 'fib...' -pes 4 -lineage
//	dgr-trace -e 'fib...' -engine compiled -lineage
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dgr"
	"dgr/internal/analysis"
	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/obs"
	"dgr/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dgr-trace:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		expr     = flag.String("e", "", "program text")
		scenario = flag.String("scenario", "", "builtin scenario: fig31 or fig32")
		phase    = flag.String("phase", "after", "snapshot point: before | after evaluation")
		pes      = flag.Int("pes", 2, "processing elements")
		engine   = flag.String("engine", dgr.EngineInterp, "with -e: reduction engine, interp or compiled")
		seed     = flag.Int64("seed", 1, "scheduling seed")
		spec     = flag.Bool("spec", false, "speculative if branches")
		jsonl    = flag.Bool("jsonl", false, "emit the event trace as JSON Lines instead of DOT")
		fab      = flag.Bool("fabric", false, "route cross-PE spawns through the simulated fabric")
		batch    = flag.Int("batch", 0, "fabric batch size (0 = default)")
		drop     = flag.Float64("drop", 0, "fabric per-transmission drop rate")
		latency  = flag.Duration("latency", 0, "fabric link latency")
		analyze  = flag.String("analyze", "", "analyze an assembled trace document: URL, file path, or - for stdin")
		lineage  = flag.Bool("lineage", false, "run -e under full lineage sampling and analyze its traces")
		asJSON   = flag.Bool("json", false, "with -analyze/-lineage: emit the recomputed TraceDoc as JSON")
		parallel = flag.Bool("parallel", false, "with -lineage: run the machine in parallel mode")
	)
	flag.Parse()
	if *engine != dgr.EngineInterp && *engine != dgr.EngineCompiled {
		return fmt.Errorf("unknown -engine %q (interp, compiled)", *engine)
	}

	opts := dgr.Options{
		PEs: *pes, Seed: *seed, Engine: *engine, SpeculativeIf: *spec, MTEvery: 1,
	}
	if *fab {
		opts.Fabric = &fabric.Params{BatchSize: *batch, DropRate: *drop, LinkLatency: *latency}
	}
	switch {
	case *analyze != "":
		return analyzeDoc(*analyze, *asJSON)
	case *lineage:
		if *expr == "" {
			return fmt.Errorf("-lineage requires -e")
		}
		opts.Parallel, opts.TraceRate = *parallel, 1
		return runLineage(*expr, opts, *asJSON)
	case *scenario != "":
		return dumpScenario(*scenario)
	case *expr != "":
		if *jsonl {
			// A log of its own, large enough (1<<18 events, an eighth of the
			// span capacity) to hold a lossy run's whole message lifecycle.
			opts.TraceSink = obs.NewTraceSink(1<<21, 0)
			return dumpJSONL(*expr, opts)
		}
		return dumpProgram(*expr, *phase, opts)
	default:
		return fmt.Errorf("use -e or -scenario")
	}
}

func dumpScenario(name string) error {
	var sc *workload.Scenario
	switch name {
	case "fig31":
		sc = workload.Fig31(2)
	case "fig32":
		sc = workload.Fig32(2)
	default:
		return fmt.Errorf("unknown scenario %q (fig31, fig32)", name)
	}
	res := analysis.Analyze(sc.Store.Snapshot(), sc.Root, sc.Tasks)
	hl := map[graph.VertexID]string{}
	for id := range res.DLv {
		hl[id] = "salmon"
	}
	for id := range res.Gar {
		hl[id] = "gray80"
	}
	fmt.Fprintf(os.Stderr, "scenario %s: |R|=%d |T|=%d |GAR|=%d |DL|=%d\n",
		name, len(res.R), len(res.T), len(res.Gar), len(res.DLv))
	return sc.Store.Snapshot().WriteDOT(os.Stdout, sc.Root, hl)
}

func dumpProgram(src, phase string, opts dgr.Options) error {
	m := dgr.New(opts)
	defer m.Close()
	root, err := m.Compile(src)
	if err != nil {
		return err
	}
	if phase == "before" {
		return m.Snapshot().WriteDOT(os.Stdout, root, nil)
	}
	v, evalErr := m.EvalNode(root)
	if evalErr != nil {
		fmt.Fprintf(os.Stderr, "evaluation: %v\n", evalErr)
	} else {
		fmt.Fprintf(os.Stderr, "result: %s\n", v)
	}
	hl := map[graph.VertexID]string{}
	for _, id := range m.Deadlocked() {
		hl[id] = "salmon"
	}
	return m.Snapshot().WriteDOT(os.Stdout, root, hl)
}

func dumpJSONL(src string, opts dgr.Options) error {
	m := dgr.New(opts)
	defer m.Close()
	v, evalErr := m.Eval(src)
	if evalErr != nil {
		fmt.Fprintf(os.Stderr, "evaluation: %v\n", evalErr)
	} else {
		fmt.Fprintf(os.Stderr, "result: %s\n", v)
	}
	if opts.Fabric != nil {
		fmt.Fprintln(os.Stderr, m.Stats())
	}
	return m.WriteFlightJSONL(os.Stdout)
}

// analyzeDoc loads an obs.TraceDoc (URL, file, or stdin), reassembles every
// trace from its raw spans, and prints the critical-path analysis.
func analyzeDoc(src string, asJSON bool) error {
	var r io.ReadCloser
	switch {
	case src == "-":
		r = os.Stdin
	case strings.HasPrefix(src, "http://"), strings.HasPrefix(src, "https://"):
		resp, err := http.Get(src)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		r = resp.Body
	default:
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		r = f
	}
	defer r.Close()
	var doc obs.TraceDoc
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("decoding trace document: %w", err)
	}
	// Reassemble from the raw spans rather than trusting the document's
	// precomputed analysis: the tool then works on any span dump.
	var spans []obs.TraceSpan
	for _, tr := range doc.Traces {
		spans = append(spans, tr.Spans...)
	}
	spans = append(spans, doc.Globals...)
	return report(obs.BuildTraceDoc(spans, doc.Dropped), asJSON)
}

// runLineage evaluates src under full head sampling and analyzes the
// machine's own trace sink.
func runLineage(src string, opts dgr.Options, asJSON bool) error {
	m := dgr.New(opts)
	defer m.Close()
	v, err := m.Eval(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "evaluation: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "result: %s\n", v)
	}
	return report(obs.BuildTraceDoc(m.TraceSink().Spans()), asJSON)
}

// report prints each trace's critical path with per-category blame, or
// emits the document as JSON. The text goes out in one write at the end, so
// a reader that stops early (grep -q) does not cut the report short with a
// broken pipe.
func report(doc obs.TraceDoc, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}
	w := &bytes.Buffer{}
	if len(doc.Traces) == 0 {
		fmt.Fprintln(w, "no traces")
	}
	for _, tr := range doc.Traces {
		crit := tr.Crit
		fmt.Fprintf(w, "trace %x: total %s, %d spans", tr.ID, time.Duration(crit.TotalNs), len(tr.Spans))
		if tr.Orphans > 0 {
			fmt.Fprintf(w, " (%d orphaned)", tr.Orphans)
		}
		fmt.Fprintln(w)
		type kv struct {
			cat string
			ns  int64
		}
		var blame []kv
		for cat, ns := range crit.Blame {
			blame = append(blame, kv{cat, ns})
		}
		sort.Slice(blame, func(i, j int) bool { return blame[i].ns > blame[j].ns })
		for _, b := range blame {
			pct := 0.0
			if crit.TotalNs > 0 {
				pct = 100 * float64(b.ns) / float64(crit.TotalNs)
			}
			fmt.Fprintf(w, "  blame  %-7s %5.1f%%  %s\n", b.cat, pct, time.Duration(b.ns))
		}
		fmt.Fprintf(w, "  critical path (%d segments):\n", len(crit.Path))
		for _, sg := range crit.Path {
			fmt.Fprintf(w, "    %-8s %-12s pe=%-3d %12s\n",
				sg.Cat, sg.Name, sg.PE, time.Duration(sg.End-sg.Start))
		}
	}
	if doc.Dropped > 0 {
		fmt.Fprintf(w, "(%d spans evicted from the ring before assembly)\n", doc.Dropped)
	}
	_, err := os.Stdout.Write(w.Bytes())
	return err
}
