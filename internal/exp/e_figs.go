package exp

import (
	"fmt"
	"math/rand"

	"dgr/internal/analysis"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
	"dgr/internal/workload"
)

func init() {
	register(Experiment{ID: "fig31", Title: "Figure 3-1: deadlocked computation x = x+1", Run: runFig31})
	register(Experiment{ID: "fig32", Title: "Figure 3-2: vital/eager/irrelevant/reserve tasks", Run: runFig32})
	register(Experiment{ID: "venn", Title: "Figure 3-3: reachability-set relationships on random graphs", Run: runVenn})
	register(Experiment{ID: "race", Title: "§4.2: mutator/marker race with cooperating primitives", Run: runRace})
}

// scenarioMachine wires a deterministic machine around a workload scenario
// with a parking reducer (tasks stay pooled, as a static instant demands),
// and a collector that runs M_T every mtEvery cycles.
func scenarioMachine(sc *workload.Scenario, seed int64, mtEvery int) (*sched.Machine, *core.Collector) {
	mach := sched.New(sched.Config{
		PEs: sc.Store.Partitions(), Mode: sched.Deterministic, Seed: seed,
		PartOf: sc.Store.PartitionOf,
	})
	marker := core.NewMarker(sc.Store, mach)
	mach.SetHandler(core.NewDispatcher(marker, sched.HandlerFunc(func(_ int, tk task.Task) {
		if tk.Kind == task.Demand {
			mach.Spawn(tk)
		}
	})))
	for _, tk := range sc.Tasks {
		mach.Spawn(tk)
	}
	col := core.NewCollector(marker, core.CollectorConfig{MTEvery: mtEvery})
	col.SetRoot(sc.Root)
	return mach, col
}

func runFig31(cfg Config) (*Table, error) {
	sc := workload.Fig31(2)
	oracle := analysis.Analyze(sc.Store.Snapshot(), sc.Root, sc.Tasks)
	_, col := scenarioMachine(sc, cfg.Seed, 1)
	rep := col.RunCycle()

	detected := map[graph.VertexID]bool{}
	for _, id := range rep.Deadlocked {
		detected[id] = true
	}
	t := &Table{
		ID:      "fig31",
		Title:   "deadlock detection on x = x+1 (M_T before M_R)",
		Columns: []string{"vertex", "oracle DL_v", "collector DL'_v", "agree"},
	}
	for _, name := range []string{"root", "x", "live"} {
		id := sc.Named[name]
		t.AddRow(name, oracle.DLv[id], detected[id], oracle.DLv[id] == detected[id])
	}
	t.Note("cycle completed=%v, M_T ran=%v", rep.Completed, rep.MTRan)
	if !detected[sc.Named["x"]] {
		return t, fmt.Errorf("fig31: knot not detected")
	}
	return t, nil
}

func runFig32(cfg Config) (*Table, error) {
	sc := workload.Fig32(2)
	oracle := analysis.Analyze(sc.Store.Snapshot(), sc.Root, sc.Tasks)

	t := &Table{
		ID:      "fig32",
		Title:   "task classification at the Figure 3-2 instant",
		Columns: []string{"task", "expected", "oracle", "after restructure"},
	}
	// Run the cycle; then inspect what happened to each task.
	mach, col := scenarioMachine(sc, cfg.Seed, 1)
	rep := col.RunCycle()

	// Survivors and their (possibly reprioritized) request kinds.
	left := map[graph.VertexID]graph.ReqKind{}
	for i := 0; i < mach.PEs(); i++ {
		mach.Pool(i).Each(func(tk task.Task) {
			if tk.Kind == task.Demand {
				left[tk.Dst] = tk.Req
			}
		})
	}
	outcome := func(tk task.Task) string {
		if rk, ok := left[tk.Dst]; ok {
			return "kept as " + rk.String()
		}
		return "expunged"
	}
	names := []string{"<t1,a> (vital)", "<root,d> (eager)", "<t2,c> (reserve)", "<t2,b> (irrelevant)"}
	for i, tk := range sc.Tasks {
		t.AddRow(names[i], sc.ExpectClass[i], oracle.Classify(tk), outcome(tk))
	}
	t.Note("reclaimed=%d expunged=%d reprioritized=%d", rep.Reclaimed, rep.Expunged, rep.Reprioritized)
	for i, want := range sc.ExpectClass {
		if got := oracle.Classify(sc.Tasks[i]); got != want {
			return t, fmt.Errorf("fig32: task %d classified %v, want %v", i, got, want)
		}
	}
	return t, nil
}

func runVenn(cfg Config) (*Table, error) {
	trials := 200
	if cfg.Quick {
		trials = 20
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "venn",
		Title:   "Figure 3-3 set relations over random graphs",
		Columns: []string{"trials", "|V| range", "violations", "avg |R|", "avg |GAR|", "avg |DL|"},
	}
	violations := 0
	var sumR, sumG, sumD, minV, maxV int
	minV = 1 << 30
	for i := 0; i < trials; i++ {
		n := 10 + rng.Intn(60)
		store := graph.NewStore(graph.Config{Partitions: 4})
		root, vs, err := workload.RandomGraph(rng, store, n, 1.5+rng.Float64())
		if err != nil {
			return nil, err
		}
		var tasks []task.Task
		for j := 0; j < rng.Intn(6); j++ {
			tasks = append(tasks, task.Task{
				Kind: task.Demand,
				Src:  vs[rng.Intn(n)].ID,
				Dst:  vs[rng.Intn(n)].ID,
				Req:  graph.ReqVital,
			})
		}
		snap := store.Snapshot()
		res := analysis.Analyze(snap, root, tasks)
		if err := res.CheckVenn(snap); err != nil {
			violations++
		}
		r, _, _, _, _, gar, dl, _ := res.Counts()
		sumR += r
		sumG += gar
		sumD += dl
		if n < minV {
			minV = n
		}
		if n > maxV {
			maxV = n
		}
	}
	t.AddRow(trials, fmt.Sprintf("%d..%d", minV, maxV), violations,
		sumR/trials, sumG/trials, sumD/trials)
	if violations != 0 {
		return t, fmt.Errorf("venn: %d violations", violations)
	}
	return t, nil
}

func runRace(cfg Config) (*Table, error) {
	points := 12
	seeds := 10
	if cfg.Quick {
		points, seeds = 6, 4
	}
	t := &Table{
		ID:      "race",
		Title:   "a→b→c add/delete-reference race during marking (+ cooperation ablation)",
		Columns: []string{"cooperation", "interleaving points", "seeds", "trials", "c lost", "coop marks"},
	}
	sweep := func(cooperate bool) (trials, lost int, coop int64) {
		for mutateAt := 0; mutateAt < points; mutateAt++ {
			for seed := int64(0); seed < int64(seeds); seed++ {
				store := graph.NewStore(graph.Config{Partitions: 2})
				mach := sched.New(sched.Config{
					PEs: 2, Mode: sched.Deterministic, Seed: cfg.Seed + seed,
					Adversarial: true, PartOf: store.PartitionOf,
				})
				marker := core.NewMarker(store, mach)
				mach.SetHandler(core.NewDispatcher(marker, nil))
				mut := core.NewMutator(marker)
				mut.SetCooperation(cooperate)

				a, _ := store.Alloc(0, graph.KindApply, 0)
				b, _ := store.Alloc(1, graph.KindApply, 0)
				c, _ := store.Alloc(0, graph.KindApply, 0)
				wire := func(p, ch *graph.Vertex) {
					p.Lock()
					p.AddArg(ch.ID, graph.ReqVital)
					p.Unlock()
				}
				wire(a, b)
				wire(b, c)

				marker.StartCycle(graph.CtxR, []core.Root{{ID: a.ID, Prior: graph.PriorVital}})
				steps, mutated := 0, false
				for !marker.Done(graph.CtxR) {
					if steps == mutateAt && !mutated {
						mut.AddReference(a, b, c, graph.ReqVital)
						mut.DeleteReference(b, c)
						mutated = true
					}
					if !mach.Step() {
						break
					}
					steps++
				}
				if !mutated {
					continue
				}
				trials++
				c.Lock()
				if c.RCtx.StateAt(marker.Epoch(graph.CtxR)) != graph.Marked {
					lost++
				}
				c.Unlock()
				coop += mach.Counters().CoopMarks.Load()
			}
		}
		return trials, lost, coop
	}

	trials, lost, coop := sweep(true)
	t.AddRow("enabled (Fig 4-2)", points, seeds, trials, lost, coop)
	trialsOff, lostOff, _ := sweep(false)
	t.AddRow("DISABLED (ablation)", points, seeds, trialsOff, lostOff, 0)

	if lost != 0 {
		return t, fmt.Errorf("race: c lost in %d trials with cooperation enabled", lost)
	}
	if trialsOff > 0 && lostOff == 0 {
		return t, fmt.Errorf("race ablation: disabling cooperation never lost c — scenario not exercising the race")
	}
	t.Note("the cooperation is load-bearing: without it the §4.2 race really does lose reachable vertices")
	return t, nil
}
