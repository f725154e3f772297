package workload

import (
	"math/rand"
	"testing"

	"dgr/internal/analysis"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/lang"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// runScenario queues the scenario's tasks (parked) and runs one collector
// cycle with M_T, returning the cycle report.
func runScenario(t *testing.T, sc *Scenario) (core.CycleReport, *metrics.Counters) {
	t.Helper()
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs: sc.Store.Partitions(), Mode: sched.Deterministic, Seed: 1,
		PartOf: sc.Store.PartitionOf, Counters: counters,
	})
	marker := core.NewMarker(sc.Store, mach, counters)
	mach.SetHandler(core.NewDispatcher(marker, sched.HandlerFunc(func(_ int, tk task.Task) {
		if tk.Kind == task.Demand {
			mach.Spawn(tk) // park reduction tasks
		}
	})))
	for _, tk := range sc.Tasks {
		mach.Spawn(tk)
	}
	col := core.NewCollector(sc.Store, marker, mach, counters, core.CollectorConfig{
		Root:    sc.Root,
		MTEvery: 1,
	})
	return col.RunCycle(), counters
}

func TestFig31OracleAndCollector(t *testing.T) {
	sc := Fig31(2)

	// Oracle: x is deadlocked, root and live are not.
	res := analysis.Analyze(sc.Store.Snapshot(), sc.Root, sc.Tasks)
	x := sc.Named["x"]
	if !res.DLv[x] {
		t.Fatal("oracle: x not deadlocked")
	}
	if res.DLv[sc.Named["live"]] || res.DLv[sc.Root] {
		t.Fatalf("oracle: false deadlocks %v", res.DLv)
	}
	if err := res.CheckVenn(sc.Store.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// Concurrent collector agrees.
	rep, _ := runScenario(t, sc)
	if !rep.MTRan || !rep.Completed {
		t.Fatalf("cycle: %+v", rep)
	}
	found := map[graph.VertexID]bool{}
	for _, id := range rep.Deadlocked {
		found[id] = true
	}
	for _, want := range sc.ExpectDeadlocked {
		if !found[want] {
			t.Fatalf("collector missed deadlocked v%d; got %v", want, rep.Deadlocked)
		}
	}
	if found[sc.Named["live"]] || found[sc.Root] {
		t.Fatalf("collector false deadlocks: %v", rep.Deadlocked)
	}
}

func TestFig32TaskClassification(t *testing.T) {
	sc := Fig32(2)
	res := analysis.Analyze(sc.Store.Snapshot(), sc.Root, sc.Tasks)
	if err := res.CheckVenn(sc.Store.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for i, want := range sc.ExpectClass {
		if got := res.Classify(sc.Tasks[i]); got != want {
			t.Errorf("task %d (%v): classified %v, want %v", i, sc.Tasks[i], got, want)
		}
	}
	// Spot-check the set memberships behind the classes.
	if !res.Rv[sc.Named["a"]] {
		t.Error("a should be in R_v")
	}
	if !res.Re[sc.Named["d"]] {
		t.Error("d should be in R_e")
	}
	if !res.Rr[sc.Named["c"]] {
		t.Error("c should be in R_r")
	}
	if !res.Gar[sc.Named["b"]] || !res.Gar[sc.Named["t2"]] {
		t.Error("b and t2 should be garbage")
	}
}

func TestFig32CollectorMatchesOracle(t *testing.T) {
	// The marker's priorities must classify the same way the oracle does,
	// and restructuring must expunge exactly the irrelevant task.
	sc := Fig32(2)
	rep, _ := runScenario(t, sc)
	if !rep.Completed {
		t.Fatal("cycle incomplete")
	}
	if rep.Expunged != 1 {
		t.Fatalf("expunged = %d, want 1 (the task to b)", rep.Expunged)
	}
	if rep.Reclaimed == 0 {
		t.Fatal("the dereferenced t2/b region should be reclaimed")
	}
	if !sc.Store.IsFree(sc.Named["b"]) || !sc.Store.IsFree(sc.Named["t2"]) {
		t.Fatal("b/t2 not reclaimed")
	}
	if sc.Store.IsFree(sc.Named["c"]) || sc.Store.IsFree(sc.Named["a"]) {
		t.Fatal("live shared vertices reclaimed")
	}
}

func TestFig32MarkerPriorities(t *testing.T) {
	sc := Fig32(2)
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs: 2, Mode: sched.Deterministic, Seed: 3,
		PartOf: sc.Store.PartitionOf, Counters: counters,
	})
	marker := core.NewMarker(sc.Store, mach, counters)
	mach.SetHandler(core.NewDispatcher(marker, nil))
	marker.StartCycle(graph.CtxR, []core.Root{{ID: sc.Root, Prior: graph.PriorVital}})
	mach.RunUntil(func() bool { return marker.Done(graph.CtxR) }, 100000)

	epoch := marker.Epoch(graph.CtxR)
	prior := func(name string) uint8 {
		v := sc.Store.Vertex(sc.Named[name])
		v.Lock()
		defer v.Unlock()
		return v.RCtx.PriorAt(epoch)
	}
	if got := prior("a"); got != graph.PriorVital {
		t.Errorf("prior(a) = %d, want 3", got)
	}
	if got := prior("d"); got != graph.PriorEager {
		t.Errorf("prior(d) = %d, want 2", got)
	}
	if got := prior("c"); got != graph.PriorReserve {
		t.Errorf("prior(c) = %d, want 1", got)
	}
	if got := prior("b"); got != graph.PriorNone {
		t.Errorf("prior(b) = %d, want 0 (unmarked)", got)
	}
}

func TestRandomGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := graph.NewStore(graph.Config{Partitions: 4})
	root, vs, err := RandomGraph(rng, store, 50, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 50 || root == graph.NilVertex {
		t.Fatal("generator broken")
	}
	res := analysis.Analyze(store.Snapshot(), root, nil)
	if len(res.R) < 2 {
		t.Fatalf("random graph barely connected: |R| = %d", len(res.R))
	}
}

func TestProgramsCorpusParses(t *testing.T) {
	// Every corpus program must at least compile (full runs are in the
	// benchmark harness and dgr package tests).
	for name, p := range Programs {
		store := graph.NewStore(graph.Config{Partitions: 2})
		if _, err := lang.CompileString(store, p.Src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
