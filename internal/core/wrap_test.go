package core

import (
	"slices"
	"testing"
	"time"

	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// TestEpochWrap runs collector cycles across the 32-bit wrap of both marking
// counters, on a seeded rig and on one whose PEs run, from a graph built at
// epoch 0 and carried to four epochs short of the wrap (StartEpochsAt), with
// a renormalising BeginCycle due just after the wrap. Across it:
//   - a live vertex that M_T never reaches (an Int under a vital edge) is
//     never retired, and the periodic renormalisation moves its stamp;
//   - garbage made at epoch 0 is reclaimed by the first cycle;
//   - a Fig 3-1 knot made at epoch 0, and one spliced in two epochs before
//     the wrap, are both reported, the second by cycles after the wrap;
//   - no counter issues 0 or the sentinel, and I1–I3 hold after every phase.
//
// The late cases build their graph through Store.Alloc after the counters
// are past 2³¹, as a long-running machine compiles a program: its garbage
// is reclaimed by the first cycle and its knot reported by the second.
func TestEpochWrap(t *testing.T) {
	t.Run("seeded", func(t *testing.T) { testEpochWrap(t, sched.Deterministic) })
	t.Run("parallel", func(t *testing.T) { testEpochWrap(t, sched.Parallel) })
	t.Run("seeded-late", func(t *testing.T) { testEpochWrapLate(t, sched.Deterministic) })
	t.Run("parallel-late", func(t *testing.T) { testEpochWrapLate(t, sched.Parallel) })
}

func testEpochWrap(t *testing.T, mode sched.Mode) {
	r := newRigIn(t, mode, 2, 3, false)
	root := r.vertexOn(0, graph.KindApply)
	live := r.vertexOn(1, graph.KindInt)
	r.edge(root, live, graph.ReqVital)
	k1 := r.knotUnder(root, 1)
	garbage := r.vertexOn(0, graph.KindApply)
	col, cycle := wrapCollector(t, r, root, live)

	r.marker.StartEpochsAt(graph.FreshAllocEpoch-4, 6)
	stamp := live.Red.AllocEpoch
	if rep := cycle(); rep.Reclaimed != 1 || r.store.InUse(garbage.ID) {
		t.Fatalf("the first cycle after the jump reclaimed %d, garbage v%d in use %t: an epoch-0 stamp reads as after the counter",
			rep.Reclaimed, garbage.ID, r.store.InUse(garbage.ID))
	}
	cycle()
	if got := col.Deadlocked(); !slices.Equal(got, []graph.VertexID{k1.ID}) {
		t.Fatalf("before the wrap: deadlocked %v, want [v%d]", got, k1.ID)
	}

	// A second knot, spliced in by the mutator two epochs before the wrap.
	k2, err := r.mut.Alloc(1, graph.KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.mut.ExpandNode(root, []*graph.Vertex{k2}, func() {
		root.AddArg(k2.ID, graph.ReqVital)
		k2.AddArg(k2.ID, graph.ReqVital)
		k2.AddRequester(root.ID, graph.ReqVital)
		k2.AddRequester(k2.ID, graph.ReqVital)
	})
	for range 5 {
		cycle()
	}
	if e := r.marker.Epoch(graph.CtxR); e != 4 || r.marker.Epoch(graph.CtxT) != 4 {
		t.Fatalf("after the run the counters read R %#x, T %#x, want 4 and 4", e, r.marker.Epoch(graph.CtxT))
	}
	if live.Red.AllocEpoch == stamp {
		t.Errorf("the renormalisation due after the wrap left the live vertex's stamp at %#x", stamp)
	}
	want := []graph.VertexID{k1.ID, k2.ID}
	slices.Sort(want)
	if got := col.Deadlocked(); !slices.Equal(got, want) {
		t.Fatalf("after the wrap: deadlocked %v, want %v", got, want)
	}
}

func testEpochWrapLate(t *testing.T, mode sched.Mode) {
	r := newRigIn(t, mode, 2, 3, false)
	r.marker.StartEpochsAt(1<<31+5, graph.RenormEvery)
	root := r.vertexOn(0, graph.KindApply)
	live := r.vertexOn(1, graph.KindInt)
	r.edge(root, live, graph.ReqVital)
	k := r.knotUnder(root, 1)
	garbage := r.vertexOn(0, graph.KindApply)
	col, cycle := wrapCollector(t, r, root, live)

	if rep := cycle(); rep.Reclaimed != 1 || r.store.InUse(garbage.ID) {
		t.Fatalf("the first cycle reclaimed %d, garbage v%d (stamp %#x) in use %t: an Alloc stamp reads as after the counter",
			rep.Reclaimed, garbage.ID, garbage.Red.AllocEpoch, r.store.InUse(garbage.ID))
	}
	cycle()
	if got := col.Deadlocked(); !slices.Equal(got, []graph.VertexID{k.ID}) {
		t.Fatalf("deadlocked %v, want [v%d] (stamp %#x against M_T epoch %#x)",
			got, k.ID, k.Red.AllocEpochT, r.marker.Epoch(graph.CtxT))
	}
}

// wrapCollector demands root on r and builds a collector over it that runs
// M_T every cycle and checks, after every phase, that no counter has issued
// a reserved epoch and that I1–I3 hold; a parallel rig's PEs are started
// and stopped when the test ends. cycle runs one collector cycle and fails
// the test unless it completes with M_T and leaves live in use.
func wrapCollector(t *testing.T, r *rig, root, live *graph.Vertex) (*Collector, func() CycleReport) {
	t.Helper()
	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})

	col := NewCollector(r.marker, CollectorConfig{
		MTEvery: 1,
		AfterPhase: func(ctx graph.Ctx) {
			if e := r.marker.Epoch(ctx); e == 0 || e == graph.FreshAllocEpoch {
				t.Errorf("context %v issued the reserved epoch %#x", ctx, e)
			}
			for _, err := range CheckInvariants(r.store, r.marker, r.mach, ctx) {
				t.Errorf("epoch %#x: %v", r.marker.Epoch(ctx), err)
			}
		},
	})
	col.SetRoot(root.ID)
	if r.mach.Mode() == sched.Parallel {
		r.mach.Start()
		t.Cleanup(r.mach.Stop)
	}
	return col, func() CycleReport {
		t.Helper()
		reps := make(chan CycleReport, 1)
		go func() { reps <- col.RunCycle() }()
		select {
		case rep := <-reps:
			if !rep.Completed || !rep.MTRan {
				t.Fatalf("cycle at epoch %#x did not complete: %+v", r.marker.Epoch(graph.CtxR), rep)
			}
			if !r.store.InUse(live.ID) || live.Kind != graph.KindInt {
				t.Fatalf("cycle at epoch %#x retired the live vertex v%d", r.marker.Epoch(graph.CtxR), live.ID)
			}
			return rep
		case <-time.After(20 * time.Second):
			t.Fatalf("cycle after epoch %#x never finished", r.marker.Epoch(graph.CtxR))
			panic("unreachable")
		}
	}
}
