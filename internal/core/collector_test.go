package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// parkReducer re-spawns demand tasks unchanged so they stay in the pools
// for the duration of a collector cycle (static-scenario stand-in for the
// reduction engine).
func parkReducer(mach *sched.Machine) sched.Handler {
	return sched.HandlerFunc(func(t task.Task) {
		if t.Kind == task.Demand {
			mach.Spawn(t)
		}
	})
}

func newCollectorRig(t *testing.T, pes int, seed int64, cfg CollectorConfig) (*rig, *Collector) {
	r := newRig(t, pes, seed, false)
	col := NewCollector(r.store, r.marker, r.mach, r.counters, cfg)
	return r, col
}

func TestCollectorReclaimsGarbage(t *testing.T) {
	r, _ := newCollectorRig(t, 2, 1, CollectorConfig{})
	root := r.vertex(graph.KindApply)
	live := r.vertex(graph.KindInt)
	g1 := r.vertex(graph.KindApply)
	g2 := r.vertex(graph.KindInt)
	r.edge(root, live, graph.ReqVital)
	r.edge(g1, g2, graph.ReqVital) // unreachable pair

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	freeBefore := r.store.FreeCount()
	rep := col.RunCycle()
	if !rep.Completed {
		t.Fatal("cycle incomplete")
	}
	if rep.Reclaimed != 2 {
		t.Fatalf("reclaimed = %d, want 2", rep.Reclaimed)
	}
	if got := r.store.FreeCount(); got != freeBefore+2 {
		t.Fatalf("free count = %d, want %d", got, freeBefore+2)
	}
	if !r.store.IsFree(g1.ID) || !r.store.IsFree(g2.ID) {
		t.Fatal("garbage vertices not freed")
	}
	if r.store.IsFree(root.ID) || r.store.IsFree(live.ID) {
		t.Fatal("live vertices were freed")
	}
}

func TestCollectorReclaimsCyclicGarbage(t *testing.T) {
	// The capability reference counting lacks (§4): self-referencing
	// structures are reclaimed by marking.
	r, _ := newCollectorRig(t, 2, 2, CollectorConfig{})
	root := r.vertex(graph.KindApply)
	c1 := r.vertex(graph.KindApply)
	c2 := r.vertex(graph.KindApply)
	c3 := r.vertex(graph.KindApply)
	r.edge(c1, c2, graph.ReqVital)
	r.edge(c2, c3, graph.ReqVital)
	r.edge(c3, c1, graph.ReqVital) // 3-cycle, unreachable
	selfy := r.vertex(graph.KindApply)
	r.edge(selfy, selfy, graph.ReqVital)

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	rep := col.RunCycle()
	if rep.Reclaimed != 4 {
		t.Fatalf("reclaimed = %d, want 4 (cycle of 3 + self-loop)", rep.Reclaimed)
	}
}

func TestCollectorMultipleCycles(t *testing.T) {
	r, _ := newCollectorRig(t, 2, 3, CollectorConfig{})
	root := r.vertex(graph.KindApply)
	keep := r.vertex(graph.KindApply)
	r.edge(root, keep, graph.ReqVital)

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	for i := 0; i < 3; i++ {
		col.RunCycle()
	}
	if got := col.Cycles(); got != 3 {
		t.Fatalf("cycles = %d", got)
	}

	// Disconnect keep; the next cycle reclaims it.
	r.mut.DeleteReference(root, keep)
	rep := col.RunCycle()
	if rep.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1", rep.Reclaimed)
	}
	if !r.store.IsFree(keep.ID) {
		t.Fatal("keep not freed after disconnect")
	}
}

func TestCollectorDeadlockDetection(t *testing.T) {
	r := newRig(t, 2, 4, false)
	root := r.vertex(graph.KindApply)
	// Deadlocked region: root vitally depends on w; w vitally depends on
	// itself (the x = x+1 knot of Figure 3-1); no task can reach them.
	w := r.vertex(graph.KindApply)
	r.edge(root, w, graph.ReqVital)
	r.edge(w, w, graph.ReqVital)
	w.Lock()
	w.AddRequester(root.ID, graph.ReqVital)
	w.AddRequester(w.ID, graph.ReqVital)
	w.Unlock()

	// Live region: a queued task keeps live1/live2 task-reachable.
	live1 := r.vertex(graph.KindApply)
	live2 := r.vertex(graph.KindApply)
	r.edge(root, live1, graph.ReqVital)
	r.edge(live1, live2, graph.ReqVital)
	live2.Lock()
	live2.AddRequester(live1.ID, graph.ReqVital)
	live2.Unlock()

	// Install a parking reducer so the demand stays pooled.
	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: live1.ID, Dst: live2.ID, Req: graph.ReqVital})
	// The root has an implicit task awaiting its value (<-,root>).
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})

	var reported []graph.VertexID
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
		Root:    root.ID,
		MTEvery: 1,
		OnDeadlock: func(ids []graph.VertexID) {
			reported = append(reported, ids...)
		},
	})
	rep := col.RunCycle()
	if !rep.MTRan {
		t.Fatal("M_T did not run")
	}
	// Two-phase verdict: the first M_T pass only nominates a candidate.
	if len(reported) != 0 {
		t.Fatalf("deadlock reported after one M_T pass: %v", reported)
	}
	if got := col.Deadlocked(); len(got) != 0 {
		t.Fatalf("confirmed deadlocked after one M_T pass: %v", got)
	}
	if got := col.PendingDeadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("pending deadlocked = %v, want exactly [%d]", got, w.ID)
	}
	// The second pass re-detects the untouched candidate and confirms it.
	col.RunCycle()
	want := map[graph.VertexID]bool{w.ID: true}
	if len(reported) != 1 || !want[reported[0]] {
		t.Fatalf("deadlocked = %v, want exactly [%d]", reported, w.ID)
	}
	// Stability: a third cycle re-detects but does not re-report.
	reported = nil
	col.RunCycle()
	if len(reported) != 0 {
		t.Fatalf("deadlocked re-reported: %v", reported)
	}
	if got := col.Deadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("accumulated deadlocked = %v", got)
	}
}

func TestCollectorNoMTNoDeadlockReports(t *testing.T) {
	// With MTEvery=0, M_T never runs and deadlock is never reported
	// ("in a system where deadlock is of no concern, M_T may be eliminated
	// altogether", §6).
	r := newRig(t, 1, 5, false)
	root := r.vertex(graph.KindApply)
	w := r.vertex(graph.KindApply)
	r.edge(root, w, graph.ReqVital)
	r.edge(w, w, graph.ReqVital)

	called := false
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
		Root:       root.ID,
		OnDeadlock: func([]graph.VertexID) { called = true },
	})
	rep := col.RunCycle()
	if rep.MTRan || called || len(rep.Deadlocked) != 0 {
		t.Fatalf("unexpected deadlock machinery: %+v called=%v", rep, called)
	}
}

func TestCollectorMTEveryK(t *testing.T) {
	r := newRig(t, 1, 6, false)
	root := r.vertex(graph.KindApply)
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
		Root:    root.ID,
		MTEvery: 3,
	})
	mtRuns := 0
	for i := 0; i < 9; i++ {
		if col.RunCycle().MTRan {
			mtRuns++
		}
	}
	if mtRuns != 3 {
		t.Fatalf("MT ran %d times in 9 cycles with MTEvery=3, want 3", mtRuns)
	}
}

func TestCollectorExpungesIrrelevantTasks(t *testing.T) {
	r := newRig(t, 2, 7, false)
	root := r.vertex(graph.KindApply)
	live := r.vertex(graph.KindApply)
	r.edge(root, live, graph.ReqVital)
	gar := r.vertex(graph.KindApply) // unreachable: tasks to it are irrelevant

	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: root.ID, Dst: live.ID, Req: graph.ReqVital})
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: root.ID, Dst: gar.ID, Req: graph.ReqEager})
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: live.ID, Dst: gar.ID, Req: graph.ReqEager})

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	rep := col.RunCycle()
	if rep.Expunged != 2 {
		t.Fatalf("expunged = %d, want 2", rep.Expunged)
	}
	if rep.Reclaimed != 1 {
		t.Fatalf("reclaimed = %d, want 1 (gar)", rep.Reclaimed)
	}
	// The surviving task is the one to live.
	left := 0
	for i := 0; i < r.mach.PEs(); i++ {
		r.mach.Pool(i).Each(func(tk task.Task) {
			if tk.Kind == task.Demand {
				left++
				if tk.Dst != live.ID {
					t.Errorf("surviving task %v should target live", tk)
				}
			}
		})
	}
	if left != 1 {
		t.Fatalf("surviving demands = %d, want 1", left)
	}
}

func TestCollectorReprioritizesTasks(t *testing.T) {
	r := newRig(t, 1, 8, false)
	root := r.vertex(graph.KindApply)
	d := r.vertex(graph.KindApply)
	// d is reachable only through an eager arc: its marked priority is 2.
	r.edge(root, d, graph.ReqEager)
	d.Lock()
	d.AddRequester(root.ID, graph.ReqEager)
	d.Unlock()

	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	// The queued demand claims to be vital; restructuring must downgrade it
	// to eager (prior(d) = 2).
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: root.ID, Dst: d.ID, Req: graph.ReqVital})

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	rep := col.RunCycle()
	if rep.Reprioritized != 1 {
		t.Fatalf("reprioritized = %d, want 1", rep.Reprioritized)
	}
	found := false
	r.mach.Pool(0).Each(func(tk task.Task) {
		if tk.Kind == task.Demand && tk.Dst == d.ID {
			found = true
			if tk.Req != graph.ReqEager {
				t.Errorf("task req = %v, want eager", tk.Req)
			}
		}
	})
	if !found {
		t.Fatal("demand task disappeared")
	}
}

func TestCollectorFreshAllocationsSurviveCycle(t *testing.T) {
	// A vertex allocated during the marking phase is unreachable and
	// unmarked, but must not be reclaimed this cycle (reduction axiom 1).
	r := newRig(t, 1, 9, false)
	root := r.vertex(graph.KindApply)
	chain := root
	for i := 0; i < 8; i++ {
		nxt := r.vertex(graph.KindApply)
		r.edge(chain, nxt, graph.ReqVital)
		chain = nxt
	}
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})

	// Drive the cycle manually: start M_R, allocate mid-marking, finish.
	var fresh *graph.Vertex
	c := col
	c.mu.Lock()
	c.cycleN++
	c.mu.Unlock()
	done := r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
	_ = done
	for i := 0; i < 3; i++ {
		r.mach.Step()
	}
	var err error
	fresh, err = r.mut.Alloc(0, graph.KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Splice the fresh vertex in (stamping its real alloc epochs), then cut
	// the edge again: it is now genuine garbage born this cycle.
	r.mut.ExpandNode(root, []*graph.Vertex{fresh}, func() {
		root.AddArg(fresh.ID, graph.ReqNone)
	})
	r.mut.DeleteReference(root, fresh)
	r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxR) }, 100000)
	rep := CycleReport{Cycle: 1, Completed: true}
	col.restructure(&rep)

	if r.store.IsFree(fresh.ID) {
		t.Fatal("fresh allocation reclaimed in its birth cycle")
	}
	if rep.Reclaimed != 0 {
		t.Fatalf("reclaimed = %d, want 0", rep.Reclaimed)
	}

	// The NEXT full cycle reclaims it (still unreachable).
	rep2 := col.RunCycle()
	if rep2.Reclaimed != 1 || !r.store.IsFree(fresh.ID) {
		t.Fatalf("second cycle reclaimed = %d (free=%v), want 1", rep2.Reclaimed, r.store.IsFree(fresh.ID))
	}
}

// TestCollectorStepBound: a marking phase whose pump runs dry before the
// marker is done — here because a queued return task is dropped mid-phase —
// is abandoned: the report says so, and nothing is reclaimed on the strength
// of incomplete marks.
func TestCollectorStepBound(t *testing.T) {
	r := newRig(t, 1, 10, false).taskPerArc() // the dropped return must be a task
	root := r.vertex(graph.KindApply)
	chain := root
	for i := 0; i < 50; i++ {
		nxt := r.vertex(graph.KindApply)
		r.edge(chain, nxt, graph.ReqVital)
		chain = nxt
	}
	r.vertex(graph.KindApply) // garbage a completed cycle would reclaim
	marking := NewDispatcher(r.marker, nil)
	dropped := 0
	r.mach.SetHandler(sched.HandlerFunc(func(tk task.Task) {
		marking.Handle(tk)
		if dropped == 0 {
			dropped = r.mach.Expunge(0, func(q task.Task) bool { return q.Kind == task.Return })
		}
	}))
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	rep := col.RunCycle()
	if dropped != 1 {
		t.Fatalf("dropped %d return tasks, want exactly the first one queued", dropped)
	}
	if rep.Completed {
		t.Fatal("cycle should have been abandoned")
	}
	if rep.Reclaimed != 0 {
		t.Fatal("abandoned cycle must not reclaim")
	}
}

func TestCollectorReprioritizesToReserve(t *testing.T) {
	// A destination reachable only through an unrequested arc is marked
	// with priority 1; its queued demand drops to the reserve band
	// (Property 5's reserve tasks get the lowest scheduling priority).
	r := newRig(t, 1, 11, false)
	root := r.vertex(graph.KindApply)
	d := r.vertex(graph.KindApply)
	r.edge(root, d, graph.ReqNone)

	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: root.ID, Dst: d.ID, Req: graph.ReqVital})

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	rep := col.RunCycle()
	if rep.Reprioritized != 1 {
		t.Fatalf("reprioritized = %d, want 1", rep.Reprioritized)
	}
	found := false
	r.mach.Pool(0).Each(func(tk task.Task) {
		if tk.Kind == task.Demand && tk.Dst == d.ID {
			found = true
			if tk.Req != graph.ReqNone || tk.Band != task.BandReserve {
				t.Errorf("task req=%v band=%d, want reserve", tk.Req, tk.Band)
			}
		}
	})
	if !found {
		t.Fatal("demand task disappeared")
	}
}

func TestCollectorForget(t *testing.T) {
	r := newRig(t, 1, 12, false)
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{})
	col.mu.Lock()
	col.deadSet[7] = true
	col.deadSet[9] = true
	col.mu.Unlock()
	col.Forget([]graph.VertexID{7})
	got := col.Deadlocked()
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("after Forget: %v", got)
	}
}

// deadlockKnot builds a rig with a self-knotted vertex w vitally demanded by
// root (the x = x+1 knot of Figure 3-1), a parked root demand keeping root
// task-reachable, and an MTEvery=1 collector reporting into *reported.
func deadlockKnot(t *testing.T, seed int64, reported *[]graph.VertexID) (*rig, *Collector, *graph.Vertex) {
	t.Helper()
	r := newRig(t, 2, seed, false)
	root := r.vertex(graph.KindApply)
	w := r.vertex(graph.KindApply)
	r.edge(root, w, graph.ReqVital)
	r.edge(w, w, graph.ReqVital)
	w.Lock()
	w.AddRequester(root.ID, graph.ReqVital)
	w.AddRequester(w.ID, graph.ReqVital)
	w.Unlock()
	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
		Root:    root.ID,
		MTEvery: 1,
		OnDeadlock: func(ids []graph.VertexID) {
			*reported = append(*reported, ids...)
		},
	})
	return r, col, w
}

func TestCollectorVerdictRetractedOnNewTask(t *testing.T) {
	// A candidate that the next M_T snapshot finds task-reachable again is
	// retracted, not confirmed — the shape of the parallel false-deadlock
	// race, where the first snapshot missed a task the second one sees.
	var reported []graph.VertexID
	r, col, w := deadlockKnot(t, 41, &reported)
	col.RunCycle()
	if got := col.PendingDeadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("pending = %v, want [%d]", got, w.ID)
	}
	// The missed task materializes: w is demanded after all.
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: w.ID, Req: graph.ReqVital})
	col.RunCycle()
	if len(reported) != 0 {
		t.Fatalf("retracted candidate was reported: %v", reported)
	}
	if got := col.Deadlocked(); len(got) != 0 {
		t.Fatalf("retracted candidate was confirmed: %v", got)
	}
	if got := col.PendingDeadlocked(); len(got) != 0 {
		t.Fatalf("retracted candidate still pending: %v", got)
	}
	if got := r.counters.DeadlockRetracted.Load(); got != 1 {
		t.Fatalf("DeadlockRetracted = %d, want 1", got)
	}
}

func TestCollectorVerdictTouchedStaysPending(t *testing.T) {
	// A candidate whose watch was touched stays pending even when
	// re-detected: the touch means reduction activity brushed the reported
	// set between the two snapshots, so the verdict waits for a clean cycle.
	// The steal below reproduces the pop→publish invisibility window: the
	// task leaves its pool (noting the watch under the pool lock) and is
	// never published, so the next snapshot cannot see it.
	var reported []graph.VertexID
	r, col, w := deadlockKnot(t, 42, &reported)
	col.RunCycle()
	if got := col.PendingDeadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("pending = %v, want [%d]", got, w.ID)
	}
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: w.ID, Req: graph.ReqVital})
	stolen := false
	for i := 0; i < r.mach.PEs(); i++ {
		if _, ok := r.mach.Pool(i).TryPopWhere(func(tk task.Task) bool {
			return tk.Kind == task.Demand && tk.Dst == w.ID
		}); ok {
			stolen = true
		}
	}
	if !stolen {
		t.Fatal("test setup: could not steal the demand on w")
	}
	col.RunCycle()
	if len(reported) != 0 || len(col.Deadlocked()) != 0 {
		t.Fatalf("touched candidate was confirmed: reported=%v dead=%v",
			reported, col.Deadlocked())
	}
	if got := col.PendingDeadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("touched candidate not re-nominated: pending=%v", got)
	}
	// A clean further cycle confirms (the knot really is deadlocked: the
	// stolen demand was never executed).
	col.RunCycle()
	if len(reported) != 1 || reported[0] != w.ID {
		t.Fatalf("reported = %v, want [%d]", reported, w.ID)
	}
}

func TestCollectorForgetAcrossMT(t *testing.T) {
	// Forget of a pending candidate and of a confirmed verdict, each across
	// an M_T boundary: the forgotten vertex must be re-nominated from
	// scratch (one full confirmation cycle again) and re-reported.
	var reported []graph.VertexID
	_, col, w := deadlockKnot(t, 43, &reported)

	// Forget while pending.
	col.RunCycle()
	if got := col.PendingDeadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("pending = %v, want [%d]", got, w.ID)
	}
	col.Forget([]graph.VertexID{w.ID})
	if got := col.PendingDeadlocked(); len(got) != 0 {
		t.Fatalf("pending after Forget = %v", got)
	}
	// The next cycle may only re-nominate, not confirm: confirmation
	// requires surviving a full cycle as a candidate, and the candidacy was
	// just forgotten.
	col.RunCycle()
	if len(reported) != 0 || len(col.Deadlocked()) != 0 {
		t.Fatalf("forgotten pending candidate confirmed early: reported=%v dead=%v",
			reported, col.Deadlocked())
	}
	col.RunCycle()
	if len(reported) != 1 || reported[0] != w.ID {
		t.Fatalf("reported = %v, want [%d]", reported, w.ID)
	}

	// Forget while confirmed (footnote 5's deliberate non-monotonicity).
	e0 := col.VerdictEpoch()
	col.Forget([]graph.VertexID{w.ID})
	if e1 := col.VerdictEpoch(); e1 <= e0 {
		t.Fatalf("verdict epoch did not advance on Forget: %d -> %d", e0, e1)
	}
	if got := col.Deadlocked(); len(got) != 0 {
		t.Fatalf("deadlocked after Forget = %v", got)
	}
	// Re-detection restarts the two-phase protocol: nominate, then confirm
	// and re-report.
	reported = nil
	col.RunCycle()
	if len(reported) != 0 {
		t.Fatalf("forgotten confirmed verdict re-reported without confirmation: %v", reported)
	}
	if got := col.PendingDeadlocked(); len(got) != 1 || got[0] != w.ID {
		t.Fatalf("pending after forget-confirmed = %v, want [%d]", got, w.ID)
	}
	col.RunCycle()
	if len(reported) != 1 || reported[0] != w.ID {
		t.Fatalf("re-reported = %v, want [%d]", reported, w.ID)
	}
}

// TestWarmCycleAllocations: a collector cycle over a live graph that did not
// change keeps its bookkeeping — root sets, the seed batch, the sweep's
// garbage list and set, the priority map, the wave — from the cycle before.
// What is left is stated in DESIGN.md §8: the done channel of each marking
// phase and, in a cycle that runs M_T, the deadlock candidates (this graph
// has some) — the list the report hands out and the verdict judge's set of
// them. Before the buffers were kept the same cycles allocated 16 and 36;
// before M_T walked the executing tasks and the pools in place, 1 and 10.
func TestWarmCycleAllocations(t *testing.T) {
	for _, tc := range []struct {
		mtEvery int
		want    float64
	}{{0, 1}, {1, 6}} {
		r := newRig(t, 4, 1, false)
		r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
		vs, tasks := frozenGraph(rand.New(rand.NewSource(1)), r, 200)
		for _, tk := range tasks {
			r.mach.Spawn(tk)
		}
		col := NewCollector(r.store, r.marker, r.mach, r.counters,
			CollectorConfig{Root: vs[0].ID, MTEvery: tc.mtEvery})
		col.RunCycle() // sweeps what the root does not reach, sizes the buffers
		col.RunCycle()
		got := testing.AllocsPerRun(20, func() {
			if rep := col.RunCycle(); !rep.Completed || rep.Reclaimed != 0 {
				t.Fatalf("warm cycle: %+v", rep)
			}
		})
		if got > tc.want {
			t.Errorf("MTEvery %d: %v allocations per warm cycle, want at most %v", tc.mtEvery, got, tc.want)
		}
		t.Logf("MTEvery %d: %v allocations per warm cycle", tc.mtEvery, got)
	}
}

// TestSweepAfterMassRelease: the sweep visits the vertices whose in-use bit
// is set, so the bits must follow a mass release — 20 000 vertices, 200 of
// them reachable — and the reuse of the freed ids in the cycles after it:
// bits cleared by a batch and set again by Alloc, cut arcs freeing batches
// of once-live vertices. Every cycle must reclaim exactly the oracle's GAR
// and never free a vertex the root reaches, on a seeded machine and on one
// with running PEs.
func TestSweepAfterMassRelease(t *testing.T) {
	const n, kept, pes = 20_000, 200, 4
	for _, tc := range []struct {
		name string
		mode sched.Mode
	}{{"deterministic", sched.Deterministic}, {"parallel", sched.Parallel}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			r := newRigIn(t, tc.mode, pes, 1, false)
			vs := make([]*graph.Vertex, n)
			for i := range vs {
				vs[i] = r.vertexOn(rng.Intn(pes), graph.KindApply)
			}
			root := vs[0]
			for i := 1; i < n; i++ {
				if i < kept { // a random tree over the first kept vertices
					r.edge(vs[rng.Intn(i)], vs[i], graph.ReqKind(rng.Intn(3)))
				} else { // the rest point anywhere, and nothing live points at them
					r.edge(vs[i], vs[rng.Intn(n)], graph.ReqKind(rng.Intn(3)))
				}
			}
			if tc.mode == sched.Parallel {
				r.mach.Start()
				defer r.mach.Stop()
			}
			col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})

			// cycle runs one collector cycle against the oracle and returns
			// the vertices the root reaches, in id order.
			cycle := func(round int) (reach []*graph.Vertex) {
				t.Helper()
				res := analysis.Analyze(r.store.Snapshot(), root.ID, nil)
				rep := col.RunCycle()
				if !rep.Completed || rep.Reclaimed != len(res.Gar) {
					t.Fatalf("round %d: %+v, want %d reclaimed (the oracle's GAR)", round, rep, len(res.Gar))
				}
				for id := range res.Gar {
					if !r.store.IsFree(id) {
						t.Fatalf("round %d: garbage v%d not freed", round, id)
					}
				}
				for _, id := range slices.Sorted(maps.Keys(res.R)) {
					if r.store.IsFree(id) {
						t.Fatalf("round %d: v%d, reachable from the root, was freed", round, id)
					}
					reach = append(reach, r.store.Vertex(id))
				}
				inUse := 0
				r.store.ForEach(func(*graph.Vertex) { inUse++ })
				if want := r.store.Len() - r.store.FreeCount(); inUse != want {
					t.Fatalf("round %d: ForEach visited %d vertices, %d are in use", round, inUse, want)
				}
				return reach
			}

			reach := cycle(0)
			if len(reach) != kept {
				t.Fatalf("%d vertices reachable after the mass release, want %d", len(reach), kept)
			}
			for round := 1; round <= 6; round++ {
				// Fresh vertices take freed ids: a third hang off the live
				// graph, the rest are garbage at birth.
				grown := r.store.Len()
				fresh := make([]*graph.Vertex, 3000)
				for i := range fresh {
					fresh[i] = r.vertexOn(rng.Intn(pes), graph.KindApply)
					if rng.Intn(3) == 0 {
						r.edge(reach[rng.Intn(len(reach))], fresh[i], graph.ReqKind(rng.Intn(3)))
					} else {
						r.edge(fresh[i], fresh[rng.Intn(i+1)], graph.ReqVital)
					}
				}
				if r.store.Len() != grown {
					t.Fatalf("round %d: the store grew from %d to %d; the fresh vertices should reuse freed ids", round, grown, r.store.Len())
				}
				// Cut arcs out of the live graph, so once-live vertices join
				// the next batch.
				for i := 0; i < 20; i++ {
					v := reach[rng.Intn(len(reach))]
					v.Lock()
					if args := v.Args(); len(args) > 0 {
						v.RemoveArg(args[rng.Intn(len(args))])
					}
					v.Unlock()
				}
				reach = cycle(round)
			}
		})
	}
}

// cycleShape is a CycleRecorder that writes down what it is handed, and
// checks on the way that M_R is never opened over a running M_T.
type cycleShape struct {
	t      *testing.T
	marker *Marker
	events []string
	// onMT runs inside M_T's CycleStart: after the task pools were
	// snapshotted, before the roots are seeded.
	onMT func()
}

func (s *cycleShape) CycleStart(ctx graph.Ctx, roots []Root) {
	if ctx == graph.CtxR && !s.marker.Done(graph.CtxT) {
		s.t.Error("M_R opened while M_T was still marking")
	}
	s.events = append(s.events, fmt.Sprintf("CycleStart %v %v", ctx, roots))
	if ctx == graph.CtxT && s.onMT != nil {
		s.onMT()
	}
}

func (s *cycleShape) RestructureStart(mtRan bool) {
	s.events = append(s.events, fmt.Sprintf("RestructureStart mt=%t", mtRan))
}

// TestCycleShapeIsModeFree: a cycle is one sequence — M_T to completion,
// then M_R, then one sweep of the arena — whichever way the machine is
// driven. Over one frozen graph with queued tasks, the collector of a seeded
// machine and the collector of a machine with running PEs hand a recorder
// the same events with the same root sets, and free the same vertices.
func TestCycleShapeIsModeFree(t *testing.T) {
	run := func(mode sched.Mode) (events []string, freed []graph.VertexID) {
		r := newRigIn(t, mode, 4, 1, false)
		// Demand tasks stay queued (or executing) for as long as parked is
		// set, so both machines show M_T the same task pools.
		var parked atomic.Bool
		parked.Store(true)
		r.mach.SetHandler(NewDispatcher(r.marker, sched.HandlerFunc(func(tk task.Task) {
			if tk.Kind == task.Demand && parked.Load() {
				r.mach.Spawn(tk)
			}
		})))
		vs, tasks := frozenGraph(rand.New(rand.NewSource(7)), r, 200)
		for _, tk := range tasks {
			r.mach.Spawn(tk)
		}
		shape := &cycleShape{t: t, marker: r.marker}
		if mode == sched.Parallel {
			// The PEs start once M_T has its snapshot: until then the pools are
			// exactly what the seeded machine's are.
			shape.onMT = r.mach.Start
			defer func() {
				parked.Store(false)
				r.mach.Stop()
			}()
		}
		col := NewCollector(r.store, r.marker, r.mach, r.counters,
			CollectorConfig{Root: vs[0].ID, MTEvery: 1, Recorder: shape})
		if rep := col.RunCycle(); !rep.Completed || !rep.MTRan || rep.Reclaimed == 0 {
			t.Fatalf("%v cycle: %+v", mode, rep)
		}
		for _, v := range vs {
			if r.store.IsFree(v.ID) {
				freed = append(freed, v.ID)
			}
		}
		return shape.events, freed
	}
	detEvents, detFreed := run(sched.Deterministic)
	parEvents, parFreed := run(sched.Parallel)
	if len(detEvents) != 3 {
		t.Fatalf("deterministic cycle recorded %d events, want CycleStart T, CycleStart R, RestructureStart:\n%q", len(detEvents), detEvents)
	}
	if !reflect.DeepEqual(detEvents, parEvents) {
		t.Errorf("cycle shape differs by mode:\ndeterministic %q\nparallel      %q", detEvents, parEvents)
	}
	if !reflect.DeepEqual(detFreed, parFreed) {
		t.Errorf("freed sets differ by mode:\ndeterministic %v\nparallel      %v", detFreed, parFreed)
	}
}
