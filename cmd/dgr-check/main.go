// Command dgr-check sweeps adversarial seeds through the machine with the
// invariant checker armed, across scheduling configurations: deterministic,
// parallel, fabric, and lossy fabric. Every run records its schedule; on the
// first violation (or wrong result) the schedule is written as a JSONL
// replay log and the sweep fails.
//
// Usage:
//
//	dgr-check                        # 64 seeds x {det,parallel,fabric,fabdrop}
//	dgr-check -seeds 8 -configs det  # quick local sweep
//	dgr-check -inject 3 -seeds 4     # validate the checker: inject mark
//	                                 # faults, require they are caught and
//	                                 # that the recording replays to the
//	                                 # same violation
//	dgr-check -replay dgr-check-fail-churn-parallel-seed7.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dgr"
	"dgr/internal/check"
	"dgr/internal/fabric"
	"dgr/internal/lang"
	"dgr/internal/workload"
)

type sweepProgram struct {
	Name string
	Src  string
	Want int64
}

// sweepPrograms is the sweep corpus: scaled-down versions of the benchmark
// programs, small enough that a 64-seed x 4-config sweep stays in seconds
// while still exercising reduction, list churn (GC pressure), and
// speculation-free recursion. -gen appends property-generated programs.
var sweepPrograms = []sweepProgram{
	{
		Name: "fib",
		Src:  "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 11",
		Want: 89,
	},
	{
		Name: "churn",
		Src: `let upto a b = if a > b then [] else a : upto (a + 1) b;
		          len xs = if isnil xs then 0 else 1 + len (tail xs);
		          go n acc = if n == 0 then acc else go (n - 1) (acc + len (upto 1 12))
		      in go 10 0`,
		Want: 120,
	},
	{
		Name: "sumsquares",
		Src: `let map f xs = if isnil xs then [] else f (head xs) : map f (tail xs);
		          upto a b = if a > b then [] else a : upto (a + 1) b;
		          sum xs = if isnil xs then 0 else head xs + sum (tail xs)
		      in sum (map (\x. x * x) (upto 1 10))`,
		Want: 385,
	},
}

var allConfigs = []string{"det", "parallel", "fabric", "fabdrop"}

type flags struct {
	seeds      int
	pes        int
	checkEvery int
	gcInterval int
	mtEvery    int
	configs    string
	engines    string
	programs   string
	gen        int
	genSeed    int64
	inject     int64
	out        string
	timeout    time.Duration
	replay     string
	steal      bool
	verbose    bool
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dgr-check:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	var f flags
	fs := flag.NewFlagSet("dgr-check", flag.ExitOnError)
	fs.IntVar(&f.seeds, "seeds", 64, "seeds per (program, config) cell")
	fs.IntVar(&f.pes, "pes", 4, "number of processing elements")
	fs.IntVar(&f.checkEvery, "checkevery", 1024, "sample every k-th task execution")
	fs.IntVar(&f.gcInterval, "gcinterval", 300, "deterministic steps between GC cycles")
	fs.IntVar(&f.mtEvery, "mtevery", 2, "run M_T every k-th cycle")
	fs.StringVar(&f.configs, "configs", strings.Join(allConfigs, ","), "comma-separated configs to sweep")
	fs.StringVar(&f.engines, "engines", dgr.EngineInterp, "comma-separated reduction engines to sweep (interp,compiled)")
	fs.StringVar(&f.programs, "programs", "", "comma-separated sweep programs (default: all)")
	fs.IntVar(&f.gen, "gen", 0, "append n property-generated programs to the sweep corpus")
	fs.Int64Var(&f.genSeed, "genseed", 20260808, "seed for the program generator (-gen)")
	fs.Int64Var(&f.inject, "inject", 0, "arm the mark-skip fault injector (1/n of marks dropped); the sweep then must catch it")
	fs.StringVar(&f.out, "out", ".", "directory for replay logs written on failure")
	fs.DurationVar(&f.timeout, "timeout", 5*time.Second, "parallel evaluation timeout")
	fs.StringVar(&f.replay, "replay", "", "replay a recorded schedule log instead of sweeping")
	fs.BoolVar(&f.steal, "steal", true, "cross-PE work stealing (parallel config; -steal=false sweeps with stealing off)")
	fs.BoolVar(&f.verbose, "v", false, "log every run")
	fs.Parse(args)

	if f.checkEvery < 1 {
		return fmt.Errorf("-checkevery %d: the checker samples every k-th execution, k ≥ 1", f.checkEvery)
	}
	if f.gen > 0 {
		genPrograms = generatePrograms(f.gen, f.genSeed)
	}
	if f.replay != "" {
		return replayLog(f)
	}
	// Both sweeps write their replay logs and flight dumps into -out.
	if err := os.MkdirAll(f.out, 0o755); err != nil {
		return err
	}
	if f.inject > 0 {
		return injectSweep(f)
	}
	return sweep(f)
}

// genPrograms holds the property-generated tail of the sweep corpus
// (-gen n -genseed s). Generation is deterministic in the seed, so a
// failure in genK replays by rerunning with the same -gen/-genseed flags.
var genPrograms []sweepProgram

// generatePrograms draws n closed integer programs from the property
// generator. Each comes with its reference value (the generator validates
// against the lang interpreter), so the sweep checks them like any
// hand-written corpus entry.
func generatePrograms(n int, seed int64) []sweepProgram {
	g := lang.NewGen(seed, lang.GenConfig{})
	out := make([]sweepProgram, 0, n)
	for i := 1; i <= n; i++ {
		_, src, want := g.Program()
		out = append(out, sweepProgram{
			Name: fmt.Sprintf("gen%d", i),
			Src:  src,
			Want: want,
		})
	}
	return out
}

// engineList parses -engines into validated dgr engine names.
func engineList(f flags) ([]string, error) {
	var out []string
	for _, e := range strings.Split(f.engines, ",") {
		e = strings.TrimSpace(e)
		switch e {
		case "":
		case dgr.EngineInterp, dgr.EngineCompiled:
			out = append(out, e)
		default:
			return nil, fmt.Errorf("unknown engine %q (have %s,%s)", e, dgr.EngineInterp, dgr.EngineCompiled)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no engines selected")
	}
	return out, nil
}

// cellName renders a (config, engine) cell for logs and artifact names;
// the plain interpreter keeps the historical bare-config form.
func cellName(config, engine string) string {
	if engine == dgr.EngineInterp {
		return config
	}
	return config + "+" + engine
}

func optionsFor(f flags, config string, seed int64, record bool) (dgr.Options, error) {
	o := dgr.Options{
		PEs:        f.pes,
		Seed:       seed,
		MTEvery:    f.mtEvery,
		GCInterval: f.gcInterval,
		// The sweep corpus finishes in well under a million deterministic
		// steps; a tight budget keeps deliberately corrupted runs (-inject)
		// from grinding through the facade's 200M-step default before
		// reporting the violations they already recorded.
		MaxSteps:   4_000_000,
		Timeout:    f.timeout,
		CheckEvery: f.checkEvery,

		RecordSchedule: record,
		Stress:         &check.Stress{FaultSkipMark: f.inject, DisableSteal: !f.steal},
	}
	switch config {
	case "det":
		o.Stress.Adversarial = true
	case "parallel":
		o.Parallel = true
	case "fabric":
		o.Stress.Adversarial = true
		o.Fabric = &fabric.Params{}
	case "fabdrop":
		o.Stress.Adversarial = true
		o.Fabric = &fabric.Params{DropRate: 0.3}
	default:
		return o, fmt.Errorf("unknown config %q (have %s)", config, strings.Join(allConfigs, ","))
	}
	return o, nil
}

// sweep runs the clean matrix: every cell must produce the right value with
// zero violations — there are no retries. The sweep corpus is deadlock-free,
// so an ErrDeadlock from any config is a detector bug (the epoch-confirmed
// verdict protocol exists precisely so this can be a hard failure rather
// than a counted flake), and it fails the sweep like any other wrong answer,
// after writing the replay log. Every run keeps the flight recorder too, and
// a run whose Eval returns an error has its flight dump, the last
// scheduler/collector/fabric events and the verdicts, taken as it returns and
// written next to the replay log.
func sweep(f flags) error {
	configs, programs, err := selections(f)
	if err != nil {
		return err
	}
	engines, err := engineList(f)
	if err != nil {
		return err
	}
	runs := 0
	start := time.Now()
	for _, p := range programs {
		for _, config := range configs {
			for _, eng := range engines {
				cell := cellName(config, eng)
				for seed := int64(1); seed <= int64(f.seeds); seed++ {
					runs++
					o := mustOptions(f, config, seed, true)
					o.Engine = eng
					o.Obs = true
					m := dgr.New(o)
					v, evalErr := m.Eval(p.Src)
					var flight bytes.Buffer
					if evalErr != nil {
						m.WriteFlightJSONL(&flight)
					}
					m.Close()
					bad := ""
					switch {
					case m.CheckErr() != nil:
						bad = fmt.Sprintf("invariant violations:\n  %s",
							strings.Join(m.CheckViolations(), "\n  "))
					case errors.Is(evalErr, dgr.ErrDeadlock):
						bad = fmt.Sprintf("spurious deadlock verdict on a deadlock-free program: %v", evalErr)
					case evalErr != nil:
						bad = fmt.Sprintf("eval error: %v", evalErr)
					case v.Int != p.Want:
						bad = fmt.Sprintf("wrong result: got %d, want %d", v.Int, p.Want)
					case len(m.RuntimeErrors()) != 0:
						// No program of the corpus can raise one, needed or not: a
						// recorded error beside the right value is a step that
						// acted on a vertex another PE had since rewritten.
						bad = fmt.Sprintf("right result, but runtime errors recorded by an error-free program: %v", m.RuntimeErrors())
					}
					if bad != "" {
						path, werr := writeReplayLog(f, m, p.Name, cell, seed)
						if werr != nil {
							path = fmt.Sprintf("(log write failed: %v)", werr)
						}
						// A run whose Eval returned no error has no flight dump:
						// its replay log holds the whole run.
						dump := "(none)"
						if flight.Len() > 0 {
							dump = filepath.Join(f.out, fmt.Sprintf("dgr-check-fail-%s-%s-seed%d.flight.jsonl", p.Name, cell, seed))
							if err := os.WriteFile(dump, flight.Bytes(), 0o644); err != nil {
								dump = fmt.Sprintf("(write failed: %v)", err)
							}
						}
						return fmt.Errorf("%s/%s seed %d FAILED: %s\nreplay log: %s\nflight dump: %s",
							p.Name, cell, seed, bad, path, dump)
					}
					if f.verbose {
						st := m.Stats()
						fmt.Printf("ok %s/%s seed %d: tasks=%d cycles=%d checks=%d retracted=%d\n",
							p.Name, cell, seed, st.TasksExecuted, st.Cycles, st.CheckRuns, st.DeadlockRetracted)
					}
				}
			}
		}
	}
	fmt.Printf("dgr-check: %d runs clean (%d seeds x %d configs x %d engines x %d programs, 0 false-deadlock retries — retries are gone) in %v\n",
		runs, f.seeds, len(configs), len(engines), len(programs), time.Since(start).Round(time.Millisecond))
	return nil
}

// injectSweep validates the checker itself: with the mark-skip fault armed,
// at least one run per program must be caught, and the first caught
// recording must replay on a fresh deterministic machine to a reproduced
// violation.
func injectSweep(f flags) error {
	configs, programs, err := selections(f)
	if err != nil {
		return err
	}
	for _, p := range programs {
		caught := 0
		replayed := ""
		for _, config := range configs {
			for seed := int64(1); seed <= int64(f.seeds); seed++ {
				m := dgr.New(mustOptions(f, config, seed, true))
				m.Eval(p.Src) // outcome irrelevant: the run is deliberately corrupted
				if m.CheckErr() == nil {
					// A parallel evaluation can deliver its value before the
					// collection loop's goroutine gets a CPU; its one cycle then
					// marks the root and its value, an arc the fault may not
					// select at that epoch. One more cycle gives the fault a
					// second epoch over the same heap.
					m.RunGC()
				}
				m.Close()
				if m.CheckErr() == nil {
					continue
				}
				caught++
				if f.verbose {
					fmt.Printf("caught %s/%s seed %d: %v\n", p.Name, config, seed, m.CheckErr())
				}
				if replayed == "" {
					if err := replayReproduces(f, m, p.Src, seed); err != nil {
						return fmt.Errorf("%s/%s seed %d: %w", p.Name, config, seed, err)
					}
					// Kept, so that `-inject N -replay <log>` reproduces it from disk.
					if replayed, err = writeReplayLog(f, m, p.Name, config, seed); err != nil {
						return err
					}
				}
			}
		}
		if caught == 0 {
			return fmt.Errorf("%s: injected fault (1/%d marks dropped) never caught in %d runs — checker asleep",
				p.Name, f.inject, len(configs)*f.seeds)
		}
		fmt.Printf("dgr-check: %s: injected fault caught in %d runs, first recording replayed to the violation: %s\n",
			p.Name, caught, replayed)
	}
	return nil
}

// replayReproduces re-drives a violating recording on a fresh deterministic
// machine (same seed, PEs, and content-addressed fault) and requires the
// violation to come back. Divergence after the violation is tolerated: a
// corrupted machine recycles vertices unpredictably once restructuring has
// raced its mutators.
func replayReproduces(f flags, m *dgr.Machine, src string, seed int64) error {
	events, err := m.ScheduleEvents()
	if err != nil {
		return err
	}
	o, err := optionsFor(f, "det", seed, false)
	if err != nil {
		return err
	}
	o.Stress.Adversarial = false // replay ignores pop policy; keep the machine plain
	m2 := dgr.New(o)
	defer m2.Close()
	root, err := m2.Compile(src)
	if err != nil {
		return err
	}
	rerr := m2.ReplaySchedule(root, events)
	if m2.CheckErr() == nil {
		return fmt.Errorf("replay did not reproduce the violation (replay err: %v)", rerr)
	}
	return nil
}

// replayLog re-drives a recorded schedule from disk and reports what the
// checker sees.
func replayLog(f flags) error {
	file, err := os.Open(f.replay)
	if err != nil {
		return err
	}
	var meta header
	entries, err := check.ReadJSONL(file, &meta)
	file.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", f.replay, err)
	}
	if meta.Ev != "meta" {
		return fmt.Errorf("%s: no meta header; cannot reconstruct the run", f.replay)
	}
	src, ok := sourceFor(meta.Program)
	if !ok {
		return fmt.Errorf("unknown program %q in meta header", meta.Program)
	}
	fmt.Printf("replaying %s: program=%s config=%s seed=%d pes=%d events=%d\n",
		f.replay, meta.Program, meta.Config, meta.Seed, meta.PEs, len(entries))
	o, err := optionsFor(f, "det", meta.Seed, false)
	if err != nil {
		return err
	}
	o.Stress.Adversarial = false
	o.PEs = meta.PEs
	o.MTEvery = meta.MTEvery
	// The engine is part of the recorded cell name: a compiled-engine
	// schedule only replays on a compiled-engine machine.
	if strings.HasSuffix(meta.Config, "+"+dgr.EngineCompiled) {
		o.Engine = dgr.EngineCompiled
	}
	m := dgr.New(o)
	defer m.Close()
	root, err := m.Compile(src)
	if err != nil {
		return err
	}
	rerr := m.ReplaySchedule(root, entries)
	for _, v := range m.CheckViolations() {
		fmt.Println("violation:", v)
	}
	if rerr != nil {
		return fmt.Errorf("replay: %w", rerr)
	}
	if cerr := m.CheckErr(); cerr != nil {
		return cerr
	}
	fmt.Println("replay clean")
	return nil
}

// header is a replay log's first line: what ran, with which knobs, so that
// -replay can build the machine that re-drives the schedule after it.
type header struct {
	Ev      string `json:"ev"` // "meta"
	Program string `json:"program,omitempty"`
	Config  string `json:"config,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	PEs     int    `json:"pes,omitempty"`
	MTEvery int    `json:"mtevery,omitempty"`
}

// writeReplayLog dumps a failed run's schedule, prefixed with a meta header
// so -replay can reconstruct the machine.
func writeReplayLog(f flags, m *dgr.Machine, program, config string, seed int64) (string, error) {
	path := filepath.Join(f.out, fmt.Sprintf("dgr-check-fail-%s-%s-seed%d.jsonl", program, config, seed))
	file, err := os.Create(path)
	if err != nil {
		return path, err
	}
	defer file.Close()
	meta := header{Ev: "meta", Program: program, Config: config,
		Seed: seed, PEs: f.pes, MTEvery: f.mtEvery}
	if err := json.NewEncoder(file).Encode(meta); err != nil {
		return path, err
	}
	if err := m.WriteScheduleJSONL(file); err != nil {
		return path, err
	}
	return path, nil
}

func selections(f flags) (configs []string, programs []sweepProgram, err error) {
	for _, c := range strings.Split(f.configs, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		if _, err := optionsFor(f, c, 1, false); err != nil {
			return nil, nil, err
		}
		configs = append(configs, c)
	}
	if len(configs) == 0 {
		return nil, nil, fmt.Errorf("no configs selected")
	}
	want := map[string]bool{}
	for _, p := range strings.Split(f.programs, ",") {
		if p = strings.TrimSpace(p); p != "" {
			want[p] = true
		}
	}
	all := len(want) == 0
	for _, p := range sweepPrograms {
		if all || want[p.Name] {
			programs = append(programs, p)
			delete(want, p.Name)
		}
	}
	for _, p := range genPrograms {
		if all || want[p.Name] {
			programs = append(programs, p)
			delete(want, p.Name)
		}
	}
	for p := range want {
		return nil, nil, fmt.Errorf("unknown sweep program %q", p)
	}
	return configs, programs, nil
}

func mustOptions(f flags, config string, seed int64, record bool) dgr.Options {
	o, err := optionsFor(f, config, seed, record)
	if err != nil {
		panic(err) // config was validated by selections
	}
	return o
}

// sourceFor resolves a program name recorded in a meta header: the sweep
// corpus first (including any -gen tail regenerated from -genseed), then
// the full benchmark corpus.
func sourceFor(name string) (string, bool) {
	for _, p := range sweepPrograms {
		if p.Name == name {
			return p.Src, true
		}
	}
	for _, p := range genPrograms {
		if p.Name == name {
			return p.Src, true
		}
	}
	if p, ok := workload.Programs[name]; ok {
		return p.Src, true
	}
	return "", false
}
