package exp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dgr"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/stopworld"
	"dgr/internal/workload"
)

func init() {
	register(Experiment{ID: "scale", Title: "marking throughput vs number of PEs (decentralization claim)", Run: runScale})
	register(Experiment{ID: "pause", Title: "concurrent marking vs stop-the-world pauses (minimal-interference claim)", Run: runPause})
	register(Experiment{ID: "pes", Title: "reduction vs number of PEs on parallel machines (both engines)", Run: runPEs})
	register(Experiment{ID: "obs", Title: "instrumentation overhead: obs and lineage tracing vs the bare machine", Run: runObs})
}

// buildForMarking reconstructs the same random graph (same seed) in a
// fresh store for each machine configuration.
func buildForMarking(seed int64, pes, n int) (*graph.Store, graph.VertexID, error) {
	rng := rand.New(rand.NewSource(seed))
	store := graph.NewStore(graph.Config{Partitions: pes})
	root, _, err := workload.RandomGraph(rng, store, n, 3.0)
	return store, root, err
}

func runScale(cfg Config) (*Table, error) {
	n := 300_000
	reps := 3
	if cfg.Quick {
		n, reps = 20_000, 1
	}
	peList := []int{1, 2, 4, 8, 16}
	t := &Table{
		ID:      "scale",
		Title:   fmt.Sprintf("one M_R cycle over a %d-vertex graph, parallel PEs", n),
		Columns: []string{"PEs", "best cycle time", "mark visits", "mark tasks", "visits/sec", "speedup vs 1 PE"},
	}
	var base float64
	for _, pes := range peList {
		store, root, err := buildForMarking(cfg.Seed, pes, n)
		if err != nil {
			return nil, err
		}
		// The machine counts its tasks and spawns on per-PE shares, a cache
		// line each, so the table measures the algorithm, not false sharing
		// (DESIGN §5, item 9); the visits are the marker's MarkVisits, added
		// once per wave.
		mach := sched.New(sched.Config{
			PEs: pes, Mode: sched.Parallel, PartOf: store.PartitionOf,
		})
		marker := core.NewMarker(store, mach)
		mach.SetHandler(core.NewDispatcher(marker, nil))
		mach.Start()

		best := time.Duration(1<<62 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			done := marker.StartCycle(graph.CtxR, []core.Root{{ID: root, Prior: graph.PriorVital}})
			<-done
			if d := time.Since(start); d < best {
				best = d
			}
		}
		mach.Stop()

		counted := mach.Counters().Snapshot()
		tasks, visits := counted.MarkTasks/int64(reps), counted.MarkVisits/int64(reps)
		rate := float64(visits) / best.Seconds()
		if pes == 1 {
			base = best.Seconds()
		}
		t.AddRow(pes, best, visits, tasks, fmt.Sprintf("%.0f", rate),
			fmt.Sprintf("%.2fx", base/best.Seconds()))
	}
	t.Note("decentralized marking: no shared stack; work spreads over per-PE task pools")
	t.Note("a mark is a task only where its arc crosses a partition (vertex i is allocated on partition i mod PEs here, so (PEs-1)/PEs of a random graph's arcs do); arcs inside a partition are walked inline by the PE that popped the task")
	return t, nil
}

// runPause measures what the mutator experiences during collection. A
// dedicated mutator goroutine continuously performs real graph mutations
// (cooperating expand-node splices on the live region) and records the
// longest gap between two consecutive operations:
//
//   - stop-the-world: the mutator must hold still for the entire
//     mark+sweep, so its maximum gap is the full collection pause;
//   - concurrent marking: the cycle runs on the PEs while the mutator
//     keeps mutating; it only ever waits for per-vertex locks, so its
//     maximum gap stays microscopic regardless of heap size.
func runPause(cfg Config) (*Table, error) {
	sizes := []int{10_000, 50_000, 100_000}
	if cfg.Quick {
		sizes = []int{5_000}
	}
	t := &Table{
		ID:      "pause",
		Title:   "max mutator pause: stop-the-world collect vs concurrent cycle",
		Columns: []string{"|V|", "STW pause (= mutator gap)", "concurrent cycle time", "mutator max gap", "mutator ops during cycle"},
	}
	for _, n := range sizes {
		// Stop-the-world baseline: the pause IS the mutator gap.
		store, root, err := buildForMarking(cfg.Seed, 4, n)
		if err != nil {
			return nil, err
		}
		res := stopworld.Collect(store, root)

		// Concurrent: same heap, parallel PEs marking while a mutator
		// goroutine splices fresh vertices under the root.
		store2, root2, err := buildForMarking(cfg.Seed, 4, n)
		if err != nil {
			return nil, err
		}
		mach := sched.New(sched.Config{
			PEs: 4, Mode: sched.Parallel, PartOf: store2.PartitionOf,
		})
		marker := core.NewMarker(store2, mach)
		mach.SetHandler(core.NewDispatcher(marker, nil))
		mut := core.NewMutator(marker)
		mach.Start()

		// The mutator works under a dedicated child of the root. (Splicing
		// under the root itself while it is transient would re-spawn marks
		// on its entire fanout per splice, letting the mutator outrun the
		// marker indefinitely — a useful discovery about mutation hot
		// spots, noted in DESIGN.md, but not what this experiment
		// measures.)
		rootV := store2.Vertex(root2)
		mutZone, err := mut.Alloc(0, graph.KindApply, 0)
		if err != nil {
			return nil, err
		}
		mut.ExpandNode(rootV, []*graph.Vertex{mutZone}, func() {
			rootV.AddArg(mutZone.ID, graph.ReqNone)
		})
		stopMut := make(chan struct{})
		mutDone := make(chan struct{})
		var ops int64
		var maxGap time.Duration
		go func() {
			defer close(mutDone)
			last := time.Now()
			for {
				select {
				case <-stopMut:
					return
				default:
				}
				n1, err := mut.Alloc(0, graph.KindInt, ops)
				if err != nil {
					return
				}
				mut.ExpandNode(mutZone, []*graph.Vertex{n1}, func() {
					mutZone.AddArg(n1.ID, graph.ReqNone)
					if args := mutZone.Args(); len(args) > 8 {
						// keep the mutation zone's fanout bounded
						mutZone.RemoveArg(args[0])
					}
				})
				now := time.Now()
				if gap := now.Sub(last); gap > maxGap {
					maxGap = gap
				}
				last = now
				ops++
				// Pace the mutator so the heap does not balloon while the
				// cycle runs; the gap measurement subtracts nothing — a
				// paced mutator blocked by a STW collector would still
				// observe the full pause.
				time.Sleep(100 * time.Microsecond)
				last = time.Now()
			}
		}()

		done := marker.StartCycle(graph.CtxR, []core.Root{{ID: root2, Prior: graph.PriorVital}})
		start := time.Now()
		<-done
		cycleDur := time.Since(start)
		close(stopMut)
		<-mutDone
		mach.Stop()

		t.AddRow(n, res.Pause, cycleDur, maxGap, ops)
		if maxGap > res.Pause && n >= 50_000 {
			return t, fmt.Errorf("pause: concurrent mutator gap %v exceeds STW pause %v", maxGap, res.Pause)
		}
	}
	t.Note("the concurrent mutator's worst gap is per-vertex lock contention + scheduling noise, independent of heap size; the STW pause grows linearly with the heap")
	return t, nil
}

// timing is one timed pass: how many ops ran, their wall time, and the heap
// allocations and bytes they made.
type timing struct {
	n       int
	elapsed time.Duration
	allocs  uint64
	bytes   uint64
}

func (t timing) perOp() time.Duration { return t.elapsed / time.Duration(t.n) }

// timePass runs pass(n), growing n the way testing.B does (by the measured
// rate ×1.2, at most 100× a step) until one pass lasts bt, and returns that
// pass. A bt shorter than one op times a single op: a quick run's smoke.
func timePass(bt time.Duration, pass func(n int) error) (timing, error) {
	for n := 1; ; {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := pass(n); err != nil {
			return timing{}, err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if elapsed >= bt || n >= 1e6 {
			return timing{n, elapsed, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}, nil
		}
		goal := int(float64(n) * (float64(bt)/float64(elapsed+1) + 0.2))
		n = min(max(goal, n+1), n*100)
	}
}

// runPEs sweeps fib over parallel machines of 1, 2, 4 and 8 PEs on both
// engines, one fresh machine per op (New, Eval, Close), every value checked.
// fib is deadlock-free and deterministic, so a failed op is a machine bug.
// Beside time and allocations it shows where a speedup comes from or is
// lost: steals, idle polls, and how evenly the PEs shared the executions.
func runPEs(cfg Config) (*Table, error) {
	bt := time.Second
	if cfg.Quick {
		bt = time.Nanosecond
	}
	p := workload.Programs["fib"]
	t := &Table{
		ID:    "pes",
		Title: fmt.Sprintf("fib on a parallel machine vs PEs, both engines, GOMAXPROCS=%d", runtime.GOMAXPROCS(0)),
		Columns: []string{"engine", "PEs", "ops", "ms/op", "allocs/op", "KB/op", "tasks/op",
			"steals/op", "idle polls/op", "execs/PE per op", "exec balance"},
	}
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		for _, pes := range []int{1, 2, 4, 8} {
			var tasks, steals, idle int64
			var execs []uint64
			tm, err := timePass(bt, func(n int) error {
				tasks, steals, idle, execs = 0, 0, 0, make([]uint64, pes)
				for i := 0; i < n; i++ {
					m := dgr.New(dgr.Options{PEs: pes, Parallel: true, Engine: engine})
					v, err := m.Eval(p.Src)
					st := m.Stats()
					tasks, steals, idle = tasks+st.TasksExecuted, steals+st.Steals, idle+st.IdlePolls
					for pe, k := range m.ExecsPerPE() {
						execs[pe] += k
					}
					m.Close()
					if err != nil {
						return fmt.Errorf("pes: %s fib at %d PEs: %w", engine, pes, err)
					}
					if v.Int != p.Want {
						return fmt.Errorf("pes: %s fib at %d PEs = %v, want %d", engine, pes, v, p.Want)
					}
				}
				return nil
			})
			if err != nil {
				return t, err
			}
			n := float64(tm.n)
			perPE := make([]int64, pes)
			for pe, k := range execs {
				perPE[pe] = int64(math.Round(float64(k) / n))
			}
			balance := 0.0
			if hi := slices.Max(execs); hi > 0 {
				balance = float64(slices.Min(execs)) / float64(hi)
			}
			t.AddRow(engine, pes, tm.n, fmt.Sprintf("%.3f", float64(tm.perOp())/1e6),
				tm.allocs/uint64(tm.n), fmt.Sprintf("%.1f", float64(tm.bytes)/n/1024),
				fmt.Sprintf("%.1f", float64(tasks)/n), fmt.Sprintf("%.2f", float64(steals)/n),
				fmt.Sprintf("%.2f", float64(idle)/n), fmt.Sprint(perPE), fmt.Sprintf("%.2f", balance))
		}
	}
	t.Note("an op is New + Eval + Close of a parallel machine; a row times ops until a pass lasts 1s, in a quick run one op")
	t.Note("exec balance is the fewest over the most tasks any PE executed: 1 is even, 0 an idle PE; an idle poll is a PE parking for want of work")
	t.Note("with GOMAXPROCS (Go's environment variable) below the PEs, the PEs share CPUs and wall time cannot beat 1 PE")
	return t, nil
}

// The overhead gate. Each instrumented cell is timed against the bare
// machine in the same mode, interleaved A/B within one process: obsPairs
// pairs of passes of equal op counts (as many as fill obsTime on the bare
// side), the side that runs first alternating. A cell is judged by the
// median of its pairs' ratios, which a burst of host noise in one pass
// barely moves; a best-of-N on each side read two independent extremes.
// obsLimit bounds it for the gated cells, obs=on and trace=armed, what a
// production machine runs (DESIGN.md §9).
const (
	obsPairs = 10
	obsTime  = 300 * time.Millisecond
	obsLimit = 1.12
	// armedRate arms the lineage sink without (statistically ever)
	// sampling: the deterministic accumulator needs ~1e12 decisions before
	// the first trace, so every instrumentation point runs its untraced
	// fast path with the sink allocated. This is the steady-state serving
	// configuration the overhead budget covers.
	armedRate = 1e-12
)

// obsCell is one side of an overhead pair: a machine mode and an
// instrumentation level.
type obsCell struct {
	name     string
	parallel bool
	obs      bool
	rate     float64 // lineage sampling rate (0: no sink at all)
}

// pass evaluates src on a fresh 4-PE machine per op, checking the value.
func (c obsCell) pass(src string, want int64) func(n int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			m := dgr.New(dgr.Options{PEs: 4, Seed: int64(i), Parallel: c.parallel, Obs: c.obs, TraceRate: c.rate})
			v, err := m.Eval(src)
			m.Close()
			if err != nil {
				return fmt.Errorf("obs: %s: %w", c.name, err)
			}
			if v.Int != want {
				return fmt.Errorf("obs: %s = %v, want %d", c.name, v, want)
			}
		}
		return nil
	}
}

// runObs measures the instrumentation overhead of obs and lineage tracing
// on fib against the bare machine, in deterministic and parallel mode, with
// the bare side's own spread beside each ratio. A full run fails when a
// gated cell's ratio exceeds obsLimit; full rate-1.0 tracing is reported
// ungated. A quick run times one op a side and gates nothing. Beside each
// wall-time ratio it reports the same ratio of process CPU time per op,
// gating nothing: a parallel machine's PEs outnumber the CPUs it may have,
// so its wall time hides part of a per-execution cost.
func runObs(cfg Config) (*Table, error) {
	pairs, bt := obsPairs, obsTime
	if cfg.Quick {
		pairs, bt = 1, time.Nanosecond
	}
	p := workload.Programs["fib"]
	t := &Table{
		ID:    "obs",
		Title: fmt.Sprintf("instrumented vs bare fib at 4 PEs: median of %d alternating pairs", pairs),
		Columns: []string{"instrumented cell", "ops/pass", "bare ms/op (q1..q3)", "bare spread",
			"instrumented ms/op (q1..q3)", "ratio", "cpu ratio", "verdict"},
	}
	over := 0
	for _, mode := range []struct {
		tag      string
		parallel bool
	}{{"det", false}, {"parallel", true}} {
		bare := obsCell{"fib/" + mode.tag + "/obs=off", mode.parallel, false, 0}
		for _, cell := range []struct {
			obsCell
			gated bool
		}{
			{obsCell{"fib/" + mode.tag + "/obs=on", mode.parallel, true, 0}, true},
			{obsCell{"fib/" + mode.tag + "/trace=armed", mode.parallel, true, armedRate}, true},
			{obsCell{"fib/" + mode.tag + "/trace=on", mode.parallel, true, 1}, false},
		} {
			sides := [2]obsCell{bare, cell.obsCell}
			cal, err := timePass(bt, bare.pass(p.Src, p.Want))
			if err != nil {
				return t, err
			}
			var ms [2][]float64
			var ratios, cpuRatios []float64
			for pair := 0; pair < pairs; pair++ {
				var ns, cpu [2]float64
				for k := range sides {
					side := (k + pair) % 2
					runtime.GC()
					start, cpu0 := time.Now(), cpuTime()
					if err := sides[side].pass(p.Src, p.Want)(cal.n); err != nil {
						return t, err
					}
					ns[side] = float64(time.Since(start)) / float64(cal.n)
					cpu[side] = float64(cpuTime()-cpu0) / float64(cal.n)
					ms[side] = append(ms[side], ns[side]/1e6)
				}
				ratios = append(ratios, ns[1]/ns[0])
				cpuRatios = append(cpuRatios, cpu[1]/cpu[0])
			}
			ratio := quantile(ratios, 0.5)
			verdict := "info only"
			switch {
			case !cell.gated:
			case cfg.Quick:
				verdict = "not gated (quick)"
			case ratio > obsLimit:
				verdict = "OVER LIMIT"
				over++
			default:
				verdict = "ok"
			}
			quart := func(xs []float64) string {
				return fmt.Sprintf("%.3f..%.3f", quantile(xs, 0.25), quantile(xs, 0.75))
			}
			spread := (quantile(ms[0], 0.75) - quantile(ms[0], 0.25)) / quantile(ms[0], 0.5)
			t.AddRow(cell.name, cal.n, quart(ms[0]), fmt.Sprintf("%.1f%%", 100*spread), quart(ms[1]),
				fmt.Sprintf("%.3f", ratio), fmt.Sprintf("%.3f", quantile(cpuRatios, 0.5)), verdict)
		}
	}
	t.Note("ratio is the median over pairs of the instrumented pass's time over the bare pass's; obs=on and trace=armed are gated at %.2f in a full run", obsLimit)
	t.Note("bare spread is (q3-q1)/median of the bare side's ms/op over its passes")
	t.Note("cpu ratio is the median over pairs of the two passes' process CPU time (user+system) per op; it is reported, not gated")
	if over > 0 {
		return t, fmt.Errorf("obs: %d configuration(s) exceed the %.0f%% overhead budget", over, (obsLimit-1)*100)
	}
	return t, nil
}

// quantile returns the q-quantile of xs, interpolating between order
// statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	pos := q * float64(len(s)-1)
	i, f := int(pos), pos-math.Floor(pos)
	if f == 0 {
		return s[i]
	}
	return s[i] + f*(s[i+1]-s[i])
}

// cpuTime returns the CPU time, user and system, the process has used, in
// nanoseconds (0 if the system will not say).
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
