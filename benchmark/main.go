// Command benchmark is dgr's end-to-end benchmark: four fixed-count
// workloads on deterministic machines, seven end-to-end metrics from an
// untraced run and the per-layer metrics from a separate traced run. See
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	defaultSeconds = 30
	defaultSeed    = 1
	// quickPasses is the measured pass count of -quick, the smoke mode the
	// tests use.
	quickPasses = 2
)

// manifest is BENCHMARK.json. The checked-in file is the output of
// -manifest, and a test holds the two equal.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestReason `json:"workloads"`
	EndToEnd   []metric         `json:"end_to_end"`
	PerLayer   []metric         `json:"per_layer"`
}

type manifestReason struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

func writeManifest(out io.Writer) error {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestReason{w.name, w.why})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]reportValue `json:"metrics"`
}

type reportValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name for a reader, then the report line.
func emit(out io.Writer, defs []metric, values map[string]float64, attempted, failed int) error {
	rep := report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]reportValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: no value", d.Name)
		}
		fmt.Fprintf(out, "%-38s %16.6g %s\n", d.Name, v, d.Unit)
		rep.Metrics[d.Name] = reportValue{v, d.Unit}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: eval-interp, eval-compiled, collect-liveheap or cold-oneshot")
		seed      = flag.Int64("seed", defaultSeed, "input seed")
		seconds   = flag.Int("seconds", defaultSeconds, "run length; sets the fixed pass count (passes per second is a constant of each workload)")
		traced    = flag.Int("trace", 0, "1: the traced run (a tenth of the passes, spans written to -spans, per-layer metrics); 0: the untraced run (end-to-end metrics)")
		spans     = flag.String("spans", "", "span file of the traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
		quick     = flag.Bool("quick", false, "smoke mode: 2 measured passes")
		selfcheck = flag.Int("selfcheck", 0, "run every workload N times in fresh processes, twice, and compare the two sets")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	// One closed-loop client on a deterministic machine: the second thread
	// is for the Go collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	err := func() error {
		switch {
		case *printMan:
			return writeManifest(os.Stdout)
		case *selfcheck > 0:
			return selfCheck(os.Stdout, *selfcheck, *seconds, *quick)
		}
		w := findWorkload(*name)
		if w == nil {
			return fmt.Errorf("unknown -workload %q", *name)
		}
		passes, repeats := int(math.Round(w.passesPerSecond*float64(*seconds))), setupRepeats
		if *quick {
			passes, repeats = quickPasses, 1
		}
		if *traced == 0 {
			limit := time.Duration(overrunFactor * float64(*seconds) * float64(time.Second))
			res, err := measure(w, *seed, repeats, passes, limit)
			if err != nil {
				return err
			}
			fmt.Printf("workload %s seed %d: %d of %d passes, %d ops; raw: %.2f ops/s, floor %.3f ms/op, calibration slice %.2f ms\n",
				w.name, *seed, res.passes, passes, res.attempted, res.opsPerS, res.opMSFloor, res.calMS)
			if err := emit(os.Stdout, endToEnd, res.metrics, res.attempted, res.failed); err != nil {
				return err
			}
			return failures(res.failed)
		}
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		}
		attempted, failed, values, err := traceTo(path, w, *seed, max(quickPasses, passes/10))
		if err != nil {
			return err
		}
		fmt.Printf("workload %s seed %d: traced, spans in %s\n", w.name, *seed, path)
		if err := emit(os.Stdout, perLayer, values, attempted, failed); err != nil {
			return err
		}
		return failures(failed)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func failures(n int) error {
	if n > 0 {
		return fmt.Errorf("%d ops missed the oracle's outcome (ok_ratio < 1)", n)
	}
	return nil
}

// traceTo makes the traced run, writes its spans to path and derives the
// per-layer metrics from that file.
func traceTo(path string, w *workload, seed int64, passes int) (attempted, failed int, values map[string]float64, err error) {
	rec, attempted, failed, err := trace(w, seed, passes)
	if err != nil {
		return 0, 0, nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, 0, nil, err
	}
	if err := rec.write(path); err != nil {
		return 0, 0, nil, err
	}
	written, err := readSpans(path)
	if err != nil {
		return 0, 0, nil, err
	}
	return attempted, failed, layerMetrics(written), nil
}
