// Package bench runs the machine's parallel and serving benchmarks outside
// `go test` and renders them as a machine-readable report; it also holds the
// observability-overhead guard. cmd/dgr-bench -json emits the report (the
// format of the checked-in BENCH_0.json and BENCH_1.json, earlier reports
// kept as history), and cmd/dgr-bench -obscheck runs the guard.
//
// The suite is the fib scaling sweep in parallel mode on both engines and
// the serving layer's cold and warm throughput. Seeded evaluations on both
// engines and collector cycles over a live heap are the workloads of the
// repository benchmark (benchmark/), and the instrumentation overhead is
// measured by -obscheck. Measurement follows the testing package's recipe —
// ramp the iteration count until the timed loop exceeds the target
// benchtime, with ns/op from wall time and allocs/op from runtime.MemStats
// deltas.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"dgr"
	"dgr/internal/serve"
	"dgr/internal/workload"
)

// Result is one benchmark case.
type Result struct {
	// Name identifies the case, e.g. "reduce-pes/fib/pes=8" or
	// "serve_throughput/warm".
	Name string `json:"name"`
	// PEs is the machine width the case ran with.
	PEs int `json:"pes"`
	// Cpus is the GOMAXPROCS value the case ran under (the -cpu sweep runs
	// the suite once per value; rows from different values share a report).
	Cpus int `json:"cpus"`
	// Parallel reports whether the machine ran in parallel (true) or
	// deterministic (false) mode.
	Parallel bool `json:"parallel"`
	// Iterations is the measured loop's final iteration count.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// TasksPerOp is the mean number of tasks the scheduler executed per
	// operation (0 where the case does not run the scheduler).
	TasksPerOp float64 `json:"tasks_per_op,omitempty"`

	// StealCount and IdlePolls are the scheduler's work-stealing counters
	// summed over the measured loop: successful cross-PE steal batches and
	// times a PE found neither local nor stealable work. Parallel-mode
	// cases only.
	StealCount int64 `json:"steal_count,omitempty"`
	IdlePolls  int64 `json:"idle_polls,omitempty"`
	// ExecsPerPE is the per-PE task-execution totals over the measured
	// loop, and ExecBalance the min/max ratio of those totals (1.0 =
	// perfectly balanced, 0 = at least one PE executed nothing). Parallel
	// cases only: deterministic mode picks PEs from a seeded RNG, so
	// balance there measures the RNG, not the scheduler.
	ExecsPerPE  []int64 `json:"execs_per_pe,omitempty"`
	ExecBalance float64 `json:"exec_balance,omitempty"`

	// ReqPerSec, P50Ns, P95Ns and CacheHitRate are filled only by the
	// serve_throughput cases: end-to-end request rate through the serving
	// layer, client-observed latency quantiles, and the fraction of
	// successful requests answered from the memo cache.
	ReqPerSec    float64 `json:"req_per_sec,omitempty"`
	P50Ns        int64   `json:"p50_ns,omitempty"`
	P95Ns        int64   `json:"p95_ns,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}

// Report is the full suite output.
type Report struct {
	// Schema names the report format, for forward compatibility.
	Schema string `json:"schema"`
	// GoVersion, GOOS, GOARCH and NumCPU describe the machine the numbers
	// were measured on; comparisons across different machines are noise.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// Quick reports whether the suite ran with shrunken iteration time.
	Quick bool `json:"quick"`
	// UnixTime is the report generation time (seconds since epoch).
	UnixTime int64 `json:"unix_time"`
	// Results holds one entry per case, in suite order.
	Results []Result `json:"results"`
}

const reportSchema = "dgr-bench/v1"

// caseAux accumulates auxiliary machine counters over a measured loop:
// tasks executed, the work-stealing counters, and per-PE execution totals.
type caseAux struct {
	tasks  int64
	steals int64
	idle   int64
	execs  []int64
}

// addMachine folds one finished machine's counters into the totals. Call
// before Close.
func (a *caseAux) addMachine(m *dgr.Machine) {
	st := m.Stats()
	a.tasks += st.TasksExecuted
	a.steals += st.Steals
	a.idle += st.IdlePolls
	for pe, n := range m.ExecsPerPE() {
		if pe >= len(a.execs) {
			a.execs = append(a.execs, make([]int64, pe+1-len(a.execs))...)
		}
		a.execs[pe] += int64(n)
	}
}

// caseFn runs n iterations of a case, folding auxiliary metric totals into
// aux.
type caseFn func(n int, aux *caseAux) error

// measurement is one timed pass.
type measurement struct {
	n       int
	elapsed time.Duration
	allocs  uint64
	bytes   uint64
	aux     caseAux
}

// measure times fn at exactly n iterations.
func measure(n int, fn caseFn) (measurement, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var aux caseAux
	start := time.Now()
	err := fn(n, &aux)
	elapsed := time.Since(start)
	if err != nil {
		return measurement{}, err
	}
	runtime.ReadMemStats(&after)
	return measurement{
		n:       n,
		elapsed: elapsed,
		allocs:  after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		aux:     aux,
	}, nil
}

// run ramps the iteration count until one timed pass meets benchtime,
// mirroring testing.B's launch loop (grow by measured rate ×1.2, capped
// at 100× per step).
func run(bt time.Duration, fn caseFn) (measurement, error) {
	n := 1
	for {
		m, err := measure(n, fn)
		if err != nil {
			return measurement{}, err
		}
		if m.elapsed >= bt || n >= 1e6 {
			return m, nil
		}
		goal := int(float64(n) * (float64(bt)/float64(m.elapsed+1) + 0.2))
		switch {
		case goal <= n:
			goal = n + 1
		case goal > n*100:
			goal = n * 100
		}
		n = goal
	}
}

// benchtime returns the minimum measuring time per case. Quick mode's
// tiny target makes every case run exactly one iteration — a smoke run.
func benchtime(quick bool) time.Duration {
	if quick {
		return time.Nanosecond
	}
	return time.Second
}

// Run executes the suite under the current GOMAXPROCS and returns the
// report. quick shrinks measuring time so CI smoke jobs finish in seconds.
// An error aborts the suite — benchmarks self-validate their program
// results, so an error means the machine computed a wrong answer, not that
// it was slow.
func Run(quick bool) (Report, error) {
	return RunSweep(quick, nil)
}

// RunSweep runs the suite once per GOMAXPROCS value in cpus (dgr-bench's
// -cpu flag), concatenating the rows into one report; each row records the
// value it ran under in its "cpus" field. A nil or empty sweep runs once
// under the ambient GOMAXPROCS. The previous GOMAXPROCS is restored on
// return.
func RunSweep(quick bool, cpus []int) (Report, error) {
	rep := Report{
		Schema:    reportSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Quick:     quick,
		UnixTime:  time.Now().Unix(),
	}
	if len(cpus) == 0 {
		cpus = []int{runtime.GOMAXPROCS(0)}
	} else {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	}
	for _, c := range cpus {
		if c > 0 {
			runtime.GOMAXPROCS(c)
		}
		results, err := runSuite(quick)
		for i := range results {
			results[i].Cpus = runtime.GOMAXPROCS(0)
		}
		rep.Results = append(rep.Results, results...)
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// runSuite executes one full pass of the suite under the current
// GOMAXPROCS.
func runSuite(quick bool) ([]Result, error) {
	var results []Result
	bt := benchtime(quick)

	// fib across PE counts, parallel mode, both engines. fib is
	// deadlock-free and deterministic, so any failed iteration is a machine
	// bug and aborts the suite — the epoch-confirmed deadlock verdict
	// removed the spurious ErrDeadlock these runs used to retry around.
	// The rows carry the stealing counters and per-PE execution balance, so
	// a sweep shows where the parallel speedup comes from (or where it is
	// lost to idle polling on a core-starved host).
	p := workload.Programs["fib"]
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		engine := engine
		prefix := "reduce-pes"
		if engine == dgr.EngineCompiled {
			prefix = "reduce_compiled-pes"
		}
		for _, pes := range []int{1, 2, 4, 8} {
			pes := pes
			m, err := run(bt, func(n int, aux *caseAux) error {
				for i := 0; i < n; i++ {
					mach := dgr.New(dgr.Options{
						PEs: pes, Parallel: true, Engine: engine,
					})
					v, err := mach.Eval(p.Src)
					aux.addMachine(mach)
					mach.Close()
					if err != nil {
						return fmt.Errorf("%s/fib/pes=%d: %w", prefix, pes, err)
					}
					if v.Int != p.Want {
						return fmt.Errorf("%s/fib/pes=%d = %v, want %d", prefix, pes, v, p.Want)
					}
				}
				return nil
			})
			if err != nil {
				return results, err
			}
			results = append(results, Result{
				Name:        fmt.Sprintf("%s/fib/pes=%d", prefix, pes),
				PEs:         pes,
				Parallel:    true,
				Iterations:  m.n,
				NsPerOp:     m.elapsed.Nanoseconds() / int64(m.n),
				AllocsPerOp: int64(m.allocs) / int64(m.n),
				BytesPerOp:  int64(m.bytes) / int64(m.n),
				TasksPerOp:  float64(m.aux.tasks) / float64(m.n),
				StealCount:  m.aux.steals,
				IdlePolls:   m.aux.idle,
				ExecsPerPE:  m.aux.execs,
				ExecBalance: execBalance(m.aux.execs),
			})
		}
	}

	// Serving-layer throughput: 4 tenants × 2 streams driving the
	// in-process pool. The cold case evaluates every program once; the
	// warm case runs two rounds so the second is answered from the memo
	// cache — its hit rate and latency quantiles land in the report.
	for _, c := range []struct {
		name   string
		rounds int
	}{
		{"serve_throughput/cold", 1},
		{"serve_throughput/warm", 2},
	} {
		res, err := serveCase(c.name, c.rounds, quick)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}

	return results, nil
}

// execBalance is the min/max ratio of per-PE execution totals: 1.0 means
// every PE executed the same number of tasks, 0 means at least one PE sat
// fully idle. A single-PE machine is trivially balanced.
func execBalance(execs []int64) float64 {
	if len(execs) == 0 {
		return 0
	}
	min, max := execs[0], execs[0]
	for _, e := range execs[1:] {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if max == 0 {
		return 0
	}
	return float64(min) / float64(max)
}

// serveCase measures one serving-layer load pass and self-validates it:
// every request must succeed, reruns must be byte-identical, and the warm
// case must see memo-cache hits.
func serveCase(name string, rounds int, quick bool) (Result, error) {
	programs := 8
	if quick {
		programs = 4
	}
	s := serve.New(serve.Options{Workers: 2, Machine: dgr.Options{PEs: 2}})
	defer s.Close()
	rep, err := workload.RunServeLoad(workload.ServeLoadConfig{
		Tenants:     4,
		Programs:    workload.ServePrograms(programs),
		Rounds:      rounds,
		Concurrency: 2,
	}, s)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	switch {
	case rep.OK != rep.Requests:
		return Result{}, fmt.Errorf("%s: %d of %d requests failed or were rejected",
			name, rep.Requests-rep.OK, rep.Requests)
	case rep.Mismatches > 0:
		return Result{}, fmt.Errorf("%s: %d rerun(s) returned non-identical results", name, rep.Mismatches)
	case rounds > 1 && rep.CacheHits == 0:
		return Result{}, fmt.Errorf("%s: warm rounds produced zero memo-cache hits", name)
	}
	res := Result{
		Name:       name,
		PEs:        2,
		Parallel:   false,
		Iterations: int(rep.Requests),
		NsPerOp:    rep.ElapsedNs / rep.Requests,
		ReqPerSec:  rep.ReqPerSec,
		P50Ns:      rep.P50Ns,
		P95Ns:      rep.P95Ns,
	}
	if rep.OK > 0 {
		res.CacheHitRate = float64(rep.CacheHits) / float64(rep.OK)
	}
	return res, nil
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// --- Observability-overhead guard ------------------------------------------

// armedRate arms the lineage sink without (statistically ever) sampling:
// the deterministic accumulator needs ~1e12 decisions before the first
// trace, so every instrumentation point runs its untraced fast path — a
// zero test on the task's trace word — with the sink allocated. This is
// the steady-state serving configuration the ≤5% overhead budget covers.
const armedRate = 1e-12

// overheadConfig is one cell of the obs-overhead A/B pairs: a machine mode
// crossed with an instrumentation level.
type overheadConfig struct {
	name     string
	parallel bool
	obs      bool
	rate     float64 // lineage sampling rate (0 = no sink at all)
}

// overheadCase builds the measured loop for one cell: a fresh machine per
// iteration, self-validating the program result.
func overheadCase(c overheadConfig, src string, want int64) caseFn {
	return func(n int, _ *caseAux) error {
		for i := 0; i < n; i++ {
			mach := dgr.New(dgr.Options{
				PEs:       4,
				Seed:      int64(i),
				Parallel:  c.parallel,
				Obs:       c.obs,
				TraceRate: c.rate,
			})
			v, err := mach.Eval(src)
			mach.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			if v.Int != want {
				return fmt.Errorf("%s = %v, want %d", c.name, v, want)
			}
		}
		return nil
	}
}

// OverheadPair is one A/B verdict from ObsOverhead: the instrumented
// configuration against its uninstrumented partner, each side's best
// (minimum) ns/op over the repetitions. Noise on a shared box only ever
// inflates a time, so each side's minimum is its closest reading of the true
// cost — which is not so of a minimum over per-repetition ratios, where
// noise in the base run deflates the result.
type OverheadPair struct {
	Name    string  `json:"name"`    // instrumented cell, e.g. ".../trace=armed"
	BaseNs  int64   `json:"base_ns"` // partner obs=off ns/op, best rep
	WithNs  int64   `json:"with_ns"` // instrumented ns/op, best rep
	BaseMax int64   `json:"base_max_ns"`
	WithMax int64   `json:"with_max_ns"` // worst reps: each side's spread
	Ratio   float64 `json:"ratio"`       // WithNs / BaseNs
	Samples int     `json:"samples"`     // repetitions measured
	// Gated configurations must stay under the overhead budget; ungated
	// ones (rate-1.0 tracing, a debugging mode that records a span per
	// task execution) are reported for the record only.
	Gated bool `json:"gated"`
}

// ObsOverhead measures the instrumentation overhead against the
// uninstrumented machine, interleaved A/B within one process (which is what
// keeps the comparison meaningful on a noisy host), the side that runs first
// alternating per repetition. The gated cells are obs=on and trace=armed —
// the configurations a production machine actually runs — plus an ungated
// rate-1.0 row documenting full-tracing cost. cmd/dgr-bench -obscheck gates
// CI on the result.
func ObsOverhead(reps int) ([]OverheadPair, error) {
	if reps < 1 {
		reps = 1
	}
	p := workload.Programs["fib"]
	bt := 500 * time.Millisecond
	var pairs []OverheadPair
	for _, mode := range []struct {
		tag      string
		parallel bool
	}{{"det", false}, {"parallel", true}} {
		base := overheadConfig{"obs-overhead/fib/" + mode.tag + "/obs=off", mode.parallel, false, 0}
		for _, cell := range []struct {
			cfg   overheadConfig
			gated bool
		}{
			{overheadConfig{"obs-overhead/fib/" + mode.tag + "/obs=on", mode.parallel, true, 0}, true},
			{overheadConfig{"obs-overhead/fib/" + mode.tag + "/trace=armed", mode.parallel, true, armedRate}, true},
			{overheadConfig{"obs-overhead/fib/" + mode.tag + "/trace=on", mode.parallel, true, 1}, false},
		} {
			pair := OverheadPair{Name: cell.cfg.name, Samples: reps, Gated: cell.gated,
				BaseNs: math.MaxInt64, WithNs: math.MaxInt64}
			sides := [2]overheadConfig{base, cell.cfg}
			for rep := 0; rep < reps; rep++ {
				var ns [2]int64
				for k := range sides {
					side := (k + rep) % 2
					m, err := run(bt, overheadCase(sides[side], p.Src, p.Want))
					if err != nil {
						return pairs, err
					}
					ns[side] = m.elapsed.Nanoseconds() / int64(m.n)
				}
				pair.BaseNs, pair.BaseMax = min(pair.BaseNs, ns[0]), max(pair.BaseMax, ns[0])
				pair.WithNs, pair.WithMax = min(pair.WithNs, ns[1]), max(pair.WithMax, ns[1])
			}
			pair.Ratio = float64(pair.WithNs) / float64(pair.BaseNs)
			pairs = append(pairs, pair)
		}
	}
	return pairs, nil
}
