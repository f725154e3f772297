package core

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// parkReducer re-spawns demand tasks unchanged so they stay in the pools
// for the duration of a collector cycle (static-scenario stand-in for the
// reduction engine).
func parkReducer(mach *sched.Machine) sched.Handler {
	return sched.HandlerFunc(func(_ int, t task.Task) {
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

// TestSweepDropsAbandonedRequests: a garbage vertex's pending requests go
// with it. A requester the root no longer reaches, still awaiting an operand
// the root reaches another way (a consumer took the operand's value through
// an indirection and dropped the requester), leaves the operand's requested
// set when it is swept, so no live vertex keeps a backlink to a freed one.
// A requester that is still live keeps its entry.
func TestSweepDropsAbandonedRequests(t *testing.T) {
	r, _ := newCollectorRig(t, 2, 1, CollectorConfig{})
	root := r.vertex(graph.KindApply)
	operand := r.vertex(graph.KindApply)
	waiting := r.vertex(graph.KindApply)
	abandoned := r.vertex(graph.KindApply)
	r.edge(root, waiting, graph.ReqVital)
	r.edge(waiting, operand, graph.ReqVital)
	r.request(waiting, operand, graph.ReqVital)
	r.edge(abandoned, operand, graph.ReqVital) // unreachable
	r.request(abandoned, operand, graph.ReqVital)

	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
	if rep := col.RunCycle(); !rep.Completed || rep.Reclaimed != 1 || !r.store.IsFree(abandoned.ID) {
		t.Fatalf("cycle %+v: want the abandoned requester, and only it, reclaimed", rep)
	}
	operand.Lock()
	reqs := slices.Clone(operand.Requested())
	operand.Unlock()
	if len(reqs) != 1 || reqs[0].Src != waiting.ID {
		t.Fatalf("operand's requesters after the sweep = %v, want only v%d", reqs, waiting.ID)
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
	r.mach.SetHandler(sched.HandlerFunc(func(pe int, tk task.Task) {
		marking.Handle(pe, tk)
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
	w := r.knotUnder(root, 0)
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

// knotUnder allocates, on partition part, a self-knotted vertex that parent
// vitally demands (the x = x+1 knot of Figure 3-1), and returns it.
func (r *rig) knotUnder(parent *graph.Vertex, part int) *graph.Vertex {
	w := r.vertexOn(part, graph.KindApply)
	r.edge(parent, w, graph.ReqVital)
	r.edge(w, w, graph.ReqVital)
	r.request(parent, w, graph.ReqVital)
	r.request(w, w, graph.ReqVital)
	return w
}

// TestCollectorCandidatesAscending: the sweep visits vertices in ascending
// id order, so the candidates an M_T cycle finds come out ascending — which
// the verdict judge relies on when it searches them. Forty knots on four
// partitions are allocated in an order that is not their ids' (each
// partition hands out its highest free id first); the first cycle reports
// them all, ascending, as candidates and the second confirms them all.
func TestCollectorCandidatesAscending(t *testing.T) {
	const knots = 40
	r := newRig(t, 4, 45, false)
	rng := rand.New(rand.NewSource(45))
	root := r.vertex(graph.KindApply)
	var want []graph.VertexID
	for i := 0; i < knots; i++ {
		want = append(want, r.knotUnder(root, rng.Intn(4)).ID)
	}
	if slices.IsSorted(want) {
		t.Fatal("test setup: the knots were allocated in id order")
	}
	slices.Sort(want)
	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})
	var reported []graph.VertexID
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
		Root:       root.ID,
		MTEvery:    1,
		OnDeadlock: func(ids []graph.VertexID) { reported = append(reported, ids...) },
	})
	if rep := col.RunCycle(); !slices.Equal(rep.Deadlocked, want) {
		t.Fatalf("candidates = %v, want %v (ascending)", rep.Deadlocked, want)
	}
	if got := col.PendingDeadlocked(); !slices.Equal(got, want) {
		t.Fatalf("pending = %v, want %v", got, want)
	}
	col.RunCycle()
	if !slices.Equal(reported, want) || !slices.Equal(col.Deadlocked(), want) {
		t.Fatalf("confirmed: reported %v, deadlocked %v, want %v", reported, col.Deadlocked(), want)
	}
	if got := col.PendingDeadlocked(); len(got) != 0 {
		t.Fatalf("pending after confirmation = %v", got)
	}
}

// TestCollectorSweepDropsVerdicts: a swept id can be handed out again, so
// the cycle that reclaims a knot drops it from the verdict record, confirmed
// or pending. A knot is confirmed deadlocked and a second one nominated; then
// the root moves elsewhere and one cycle, which runs no M_T, reclaims both
// and leaves no verdict naming either.
func TestCollectorSweepDropsVerdicts(t *testing.T) {
	r := newRig(t, 2, 44, false)
	root := r.vertex(graph.KindApply)
	w := r.knotUnder(root, 0)
	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})
	col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID, MTEvery: 2})
	for i := 0; i < 4; i++ { // M_T in cycles 2 and 4: nominate, confirm
		col.RunCycle()
	}
	if got := col.Deadlocked(); !slices.Equal(got, []graph.VertexID{w.ID}) {
		t.Fatalf("deadlocked = %v, want [%d]", got, w.ID)
	}
	w2 := r.knotUnder(root, 1)
	col.RunCycle()
	col.RunCycle() // M_T in cycle 6: nominate w2
	if got := col.PendingDeadlocked(); !slices.Equal(got, []graph.VertexID{w2.ID}) {
		t.Fatalf("pending = %v, want [%d]", got, w2.ID)
	}

	epoch := col.VerdictEpoch()
	elsewhere := r.vertex(graph.KindInt)
	col.SetRoot(elsewhere.ID)
	rep := col.RunCycle()
	if rep.MTRan || rep.Reclaimed != 3 {
		t.Fatalf("cycle after the root moved: %+v, want no M_T and 3 reclaimed (root and both knots)", rep)
	}
	if !r.store.IsFree(w.ID) || !r.store.IsFree(w2.ID) {
		t.Fatal("the knots were not reclaimed")
	}
	if got := col.Deadlocked(); len(got) != 0 {
		t.Fatalf("deadlocked after the sweep = %v", got)
	}
	if got := col.PendingDeadlocked(); len(got) != 0 {
		t.Fatalf("pending after the sweep = %v", got)
	}
	if e := col.VerdictEpoch(); e <= epoch {
		t.Fatalf("verdict epoch %d -> %d: dropping a confirmed verdict must advance it", epoch, e)
	}
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
// garbage lists, the priority slice, the release runs, the wave — from the
// cycle before. What is left is stated in DESIGN.md §8: the done channel of
// each marking phase and, in a cycle that runs M_T, the deadlock candidates
// (this graph has some) — the list the report hands out and the verdict
// watch over them. Before the buffers were kept the same cycles allocated 16
// and 36; before M_T walked the executing tasks and the pools in place, 1
// and 10; before the cycle dropped its maps, 1 and 6. A cycle that reclaims
// 1 000 vertices, spread over the partitions, is held to the same bound: the
// garbage costs per vertex, never an allocation.
func TestWarmCycleAllocations(t *testing.T) {
	const pes = 4
	for _, tc := range []struct {
		mtEvery, garbage int
		want             float64
	}{{0, 0, 1}, {1, 0, 5}, {0, 1000, 1}, {1, 1000, 5}} {
		r := newRig(t, pes, 1, false)
		r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
		vs, tasks := frozenGraph(rand.New(rand.NewSource(1)), r, 200)
		for _, tk := range tasks {
			r.mach.Spawn(tk)
		}
		col := NewCollector(r.store, r.marker, r.mach, r.counters,
			CollectorConfig{Root: vs[0].ID, MTEvery: tc.mtEvery})
		col.RunCycle() // sweeps what the root does not reach, sizes the buffers
		col.RunCycle()
		// cycle makes tc.garbage unreachable vertices, a chain per partition
		// on ids the cycle before freed, and collects them.
		cycle := func() {
			var prev [pes]*graph.Vertex
			for i := 0; i < tc.garbage; i++ {
				v := r.vertexOn(i%pes, graph.KindApply)
				if p := prev[i%pes]; p != nil {
					r.edge(p, v, graph.ReqVital)
				}
				prev[i%pes] = v
			}
			if rep := col.RunCycle(); !rep.Completed || rep.Reclaimed != tc.garbage {
				t.Fatalf("warm cycle: %+v, want %d reclaimed", rep, tc.garbage)
			}
		}
		cycle() // the first garbage grows the store, the release runs and the shards' stacks
		got := testing.AllocsPerRun(20, cycle)
		if got > tc.want {
			t.Errorf("MTEvery %d, %d garbage: %v allocations per warm cycle, want at most %v", tc.mtEvery, tc.garbage, got, tc.want)
		}
		t.Logf("MTEvery %d, %d garbage: %v allocations per warm cycle", tc.mtEvery, tc.garbage, got)
	}
}

// TestExpungeMatchesOracle: the expunge deletes exactly IRR = {<s,d> | d ∈
// GAR} (Property 6) and nothing else, at scale — four partitions, ids dealt
// across many blocks, thousands of garbage vertices, and reduction
// and marking tasks queued to random vertices. The tasks are queued as M_R
// completes, so none of them runs before the expunge and all that
// it keeps are still queued after it; a parallel rig's PEs are stopped there
// for the same reason, so what differs is its locked store. After one cycle
// the reduction tasks left are exactly those whose destination is in the
// oracle's R, each demand banded by its destination's marked priority, and
// every marking task is still there.
func TestExpungeMatchesOracle(t *testing.T) {
	const n, kept, pes, tasks = 6_000, 600, 4, 4_000
	for _, tc := range []struct {
		name string
		mode sched.Mode
	}{{"deterministic", sched.Deterministic}, {"parallel", sched.Parallel}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			r := newRigIn(t, tc.mode, pes, 2, false)
			vs := make([]*graph.Vertex, n)
			for i := range vs {
				vs[i] = r.vertexOn(rng.Intn(pes), graph.KindApply)
			}
			for i := 1; i < n; i++ {
				if i < kept { // a random tree over the first kept vertices
					r.edge(vs[rng.Intn(i)], vs[i], graph.ReqKind(rng.Intn(3)))
				} else { // the rest point anywhere, and nothing live points at them
					r.edge(vs[i], vs[rng.Intn(n)], graph.ReqKind(rng.Intn(3)))
				}
			}
			if r.store.Len() < 10*64 {
				t.Fatalf("test setup: %d vertices, want ids across ten blocks or more", r.store.Len())
			}
			res := analysis.Analyze(r.store.Snapshot(), vs[0].ID, nil)
			if len(res.Gar) < n-kept {
				t.Fatalf("test setup: %d garbage vertices, want at least %d", len(res.Gar), n-kept)
			}

			// key is what restructuring must leave alone: the band and a
			// demand's request are its to change.
			type key struct {
				kind     task.Kind
				src, dst graph.VertexID
				epoch    uint64
			}
			keyOf := func(tk task.Task) key { return key{tk.Kind, tk.Src, tk.Dst, tk.Epoch} }
			cmpKey := func(a, b key) int {
				return cmp.Or(cmp.Compare(a.kind, b.kind), cmp.Compare(a.src, b.src),
					cmp.Compare(a.dst, b.dst), cmp.Compare(a.epoch, b.epoch))
			}
			var queued []task.Task
			var want []key
			irrelevant := 0
			kinds := []task.Kind{task.Demand, task.Result, task.Reduce, task.Mark, task.Return}
			for i := 0; i < tasks; i++ {
				tk := task.Task{
					Kind: kinds[rng.Intn(len(kinds))],
					Src:  vs[rng.Intn(n)].ID,
					Dst:  vs[rng.Intn(n)].ID,
					Req:  graph.ReqKind(rng.Intn(3)),
				}
				if tk.Kind.IsMarking() {
					// Of no phase: were one to run, the marker would drop it.
					tk.Ctx, tk.Prior, tk.Epoch = graph.Ctx(rng.Intn(2)), graph.PriorVital, 1<<40
				}
				queued = append(queued, tk)
				if tk.Kind.IsReduction() && res.Gar[tk.Dst] {
					irrelevant++
				} else {
					want = append(want, keyOf(tk))
				}
			}
			slices.SortFunc(want, cmpKey)

			if tc.mode == sched.Parallel {
				r.mach.Start()
				defer r.mach.Stop()
			}
			col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
				Root: vs[0].ID,
				// The cycle's last phase: restructuring comes next.
				AfterPhase: func(graph.Ctx) {
					r.mach.Stop()
					for _, tk := range queued {
						r.mach.Spawn(tk)
					}
				},
			})
			rep := col.RunCycle()
			if !rep.Completed || rep.Reclaimed != len(res.Gar) || rep.Expunged != irrelevant {
				t.Fatalf("%+v, want %d reclaimed (the oracle's GAR) and %d expunged (the reduction tasks to it)", rep, len(res.Gar), irrelevant)
			}
			var got []key
			r.mach.EachQueued(func(tk task.Task) {
				got = append(got, keyOf(tk))
				if tk.Kind.IsReduction() && !res.R[tk.Dst] {
					t.Errorf("%v survived, but its destination is not in R", tk)
				}
				if tk.Kind == task.Demand && tk.Req.Priority() != res.Prior[tk.Dst] {
					t.Errorf("%v: request %v, but its destination was marked with priority %d", tk, tk.Req, res.Prior[tk.Dst])
				}
			})
			slices.SortFunc(got, cmpKey)
			if !slices.Equal(got, want) {
				t.Fatalf("%d tasks queued after the cycle, want %d: every marking task and the reduction tasks to R", len(got), len(want))
			}
		})
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

// TestCycleShapeIsModeFree: a cycle is one sequence — M_T to completion,
// then M_R, then one sweep of the arena — whichever way the machine is
// driven. Over one frozen graph with queued tasks, the collector of a seeded
// machine and the collector of a machine with running PEs write the same
// phase entries into the machine's execution record, with the same root
// sets, and free the same vertices.
func TestCycleShapeIsModeFree(t *testing.T) {
	run := func(mode sched.Mode) (phases []string, freed []graph.VertexID) {
		r := newRigIn(t, mode, 4, 1, false)
		r.mach.SetRecord(true)
		// Demand tasks stay queued (or executing) for as long as parked is
		// set, so both machines show M_T the same tasks: its root set is
		// their endpoints, each once, whichever PE holds a task.
		var parked atomic.Bool
		parked.Store(true)
		r.mach.SetHandler(NewDispatcher(r.marker, sched.HandlerFunc(func(_ int, tk task.Task) {
			if tk.Kind == task.Demand && parked.Load() {
				r.mach.Spawn(tk)
			}
		})))
		vs, tasks := frozenGraph(rand.New(rand.NewSource(7)), r, 200)
		for _, tk := range tasks {
			r.mach.Spawn(tk)
		}
		if mode == sched.Parallel {
			r.mach.Start()
			defer func() {
				parked.Store(false)
				r.mach.Stop()
			}()
		}
		col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
			Root: vs[0].ID, MTEvery: 1,
			AfterPhase: func(ctx graph.Ctx) {
				if ctx == graph.CtxT && r.marker.Active(graph.CtxR) {
					t.Errorf("%v: M_R opened while M_T was still marking", mode)
				}
			},
		})
		if rep := col.RunCycle(); !rep.Completed || !rep.MTRan || rep.Reclaimed == 0 {
			t.Fatalf("%v cycle: %+v", mode, rep)
		}
		for _, e := range r.mach.Record() {
			switch e.Op {
			case sched.OpCycle:
				phases = append(phases, fmt.Sprintf("cycle %v", e.Ctx))
			case sched.OpRoot:
				phases[len(phases)-1] += fmt.Sprintf(" v%d/%d", e.Dst, e.Prior)
			case sched.OpRestructure:
				phases = append(phases, fmt.Sprintf("restructure mt=%t", e.MT))
			}
		}
		for _, v := range vs {
			if r.store.IsFree(v.ID) {
				freed = append(freed, v.ID)
			}
		}
		return phases, freed
	}
	detPhases, detFreed := run(sched.Deterministic)
	parPhases, parFreed := run(sched.Parallel)
	if len(detPhases) != 3 {
		t.Fatalf("deterministic cycle recorded %d phase starts, want M_T, M_R, restructure:\n%q", len(detPhases), detPhases)
	}
	if !reflect.DeepEqual(detPhases, parPhases) {
		t.Errorf("cycle shape differs by mode:\ndeterministic %q\nparallel      %q", detPhases, parPhases)
	}
	if !reflect.DeepEqual(detFreed, parFreed) {
		t.Errorf("freed sets differ by mode:\ndeterministic %v\nparallel      %v", detFreed, parFreed)
	}
}

// BenchmarkRestructure is one collector cycle — M_R, then restructuring —
// over N live vertices (a random tree on four partitions) and M garbage
// vertices made before the cycle on the ids the cycle before freed, with K
// demand tasks queued: half to live vertices, parked there, and half to the
// garbage, which the cycle expunges and the next set-up queues afresh. The
// set-up is outside the timer. Beside the whole cycle it reports the
// restructuring phase alone (M_R's AfterPhase to AfterCycle), and vertices
// reclaimed and tasks expunged per cycle.
func BenchmarkRestructure(b *testing.B) {
	const pes = 4
	for _, sz := range []struct{ live, garbage, tasks int }{
		{2000, 0, 1000}, {2000, 10_000, 1000}, {20_000, 10_000, 10_000},
	} {
		b.Run(fmt.Sprintf("live=%d/garbage=%d/tasks=%d", sz.live, sz.garbage, sz.tasks), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			r := newRig(b, pes, 1, false)
			r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
			live := make([]*graph.Vertex, sz.live)
			for i := range live {
				live[i] = r.vertexOn(rng.Intn(pes), graph.KindApply)
				if i > 0 {
					r.edge(live[rng.Intn(i)], live[i], graph.ReqKind(rng.Intn(3)))
				}
			}
			for i := 0; i < sz.tasks/2; i++ {
				r.mach.Spawn(task.Task{Kind: task.Demand, Src: live[rng.Intn(sz.live)].ID,
					Dst: live[rng.Intn(sz.live)].ID, Req: graph.ReqVital})
			}
			var began time.Time
			var restructure time.Duration
			col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{
				Root:       live[0].ID,
				AfterPhase: func(graph.Ctx) { began = time.Now() },
				AfterCycle: func(CycleReport) { restructure += time.Since(began) },
			})
			garbage := make([]*graph.Vertex, sz.garbage)
			setup := func() {
				for i := range garbage {
					garbage[i] = r.vertexOn(i%pes, graph.KindApply)
					if i > 0 {
						r.edge(garbage[i], garbage[rng.Intn(i)], graph.ReqVital)
					}
				}
				for i := 0; i < sz.tasks/2 && sz.garbage > 0; i++ {
					r.mach.Spawn(task.Task{Kind: task.Demand, Src: live[rng.Intn(sz.live)].ID,
						Dst: garbage[rng.Intn(sz.garbage)].ID, Req: graph.ReqEager})
				}
			}
			setup()
			col.RunCycle() // warm: buffers, pools, the store's free stacks
			var reclaimed, expunged int
			restructure = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				setup()
				b.StartTimer()
				rep := col.RunCycle()
				reclaimed += rep.Reclaimed
				expunged += rep.Expunged
			}
			b.StopTimer()
			b.ReportMetric(float64(restructure.Nanoseconds())/float64(b.N), "restructure-ns/cycle")
			b.ReportMetric(float64(reclaimed)/float64(b.N), "reclaimed/cycle")
			b.ReportMetric(float64(expunged)/float64(b.N), "expunged/cycle")
		})
	}
}
