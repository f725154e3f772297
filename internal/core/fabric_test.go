package core

import (
	"testing"
	"time"

	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// newFabricRig builds a deterministic rig whose cross-partition spawns
// transit a lossy inter-PE fabric.
func newFabricRig(t *testing.T, pes int, seed int64, params fabric.Params) *rig {
	t.Helper()
	store := graph.NewStore(graph.Config{Partitions: pes})
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs:      pes,
		Mode:     sched.Deterministic,
		Seed:     seed,
		PartOf:   store.PartitionOf,
		Counters: counters,
		Fabric:   &params,
	})
	marker := NewMarker(store, mach, counters)
	mach.SetHandler(NewDispatcher(marker, nil))
	mut := NewMutator(store, marker, mach, counters)
	return &rig{t: t, store: store, mach: mach, marker: marker, mut: mut, counters: counters}
}

// vertexOn allocates a vertex on a specific partition.
func (r *rig) vertexOn(part int, kind graph.Kind) *graph.Vertex {
	r.t.Helper()
	v, err := r.store.Alloc(part, kind, 0)
	if err != nil {
		r.t.Fatal(err)
	}
	return v
}

// TestMarkingOverLossyFabric runs M_R over a graph deliberately spread
// across partitions, with every cross-PE mark/return subject to 10% drop:
// the at-least-once fabric must preserve Lemma 2 (all reachable vertices
// marked), the marking invariants, and mt-cnt conservation.
func TestMarkingOverLossyFabric(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := newFabricRig(t, 4, seed, fabric.Params{
			BatchSize:   4,
			FlushEvery:  10 * time.Microsecond,
			LinkLatency: 5 * time.Microsecond,
			Jitter:      3 * time.Microsecond,
			DropRate:    0.10,
			ReorderRate: 0.10,
		})
		// A chain that hops partitions on every edge, with a side tree.
		root := r.vertexOn(0, graph.KindApply)
		prev := root
		var all []*graph.Vertex
		all = append(all, root)
		for i := 1; i <= 20; i++ {
			v := r.vertexOn(i%4, graph.KindApply)
			r.edge(prev, v, graph.ReqVital)
			all = append(all, v)
			prev = v
		}
		for i := 0; i < 6; i++ {
			leaf := r.vertexOn((i+2)%4, graph.KindInt)
			r.edge(all[i*3], leaf, graph.ReqEager)
			all = append(all, leaf)
		}
		// Cross-partition garbage cycle, unreachable from root.
		g1 := r.vertexOn(1, graph.KindApply)
		g2 := r.vertexOn(2, graph.KindApply)
		g3 := r.vertexOn(3, graph.KindApply)
		r.edge(g1, g2, graph.ReqVital)
		r.edge(g2, g3, graph.ReqVital)
		r.edge(g3, g1, graph.ReqVital)

		r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
		r.assertMarked(graph.CtxR, all...)
		r.assertUnmarked(graph.CtxR, g1, g2, g3)
		if bad := CheckAllReachableMarked(r.store, r.marker, graph.CtxR, root.ID); len(bad) > 0 {
			t.Fatalf("seed %d: reachable-but-unmarked: %v", seed, bad)
		}
		r.assertNoViolations(graph.CtxR)
		s := r.counters.Snapshot()
		if s.FabricSent == 0 || s.FabricSent != s.FabricDelivered {
			t.Fatalf("seed %d: fabric sent=%d delivered=%d", seed, s.FabricSent, s.FabricDelivered)
		}
		if s.FabricDropped == 0 {
			t.Fatalf("seed %d: no loss injected (batches=%d)", seed, s.FabricBatches)
		}

		// A full collector cycle reclaims the cross-partition cycle.
		col := NewCollector(r.store, r.marker, r.mach, r.counters, CollectorConfig{Root: root.ID})
		rep := col.RunCycle()
		if !rep.Completed || rep.Reclaimed != 3 {
			t.Fatalf("seed %d: reclaimed=%d completed=%v, want 3/true", seed, rep.Reclaimed, rep.Completed)
		}
	}
}

// TestMTSeesInTransitTasks is the regression for M_T's taskpool snapshot:
// a demand task sitting in a fabric outbox (spawned, not yet delivered to
// any pool) must still act as a task root, or the subgraph it awaits would
// be misreported as deadlocked.
func TestMTSeesInTransitTasks(t *testing.T) {
	// A huge batch size and a deadline far beyond the snapshot point park
	// the remote demand in the outbox while taskRoots runs (the snapshot
	// happens before any pumping); the deadline stays reachable so the
	// cycle itself can complete.
	r := newFabricRig(t, 2, 4, fabric.Params{
		BatchSize:  1 << 20,
		FlushEvery: 200 * time.Microsecond,
	})
	root := r.vertexOn(0, graph.KindApply)
	// Genuinely deadlocked knot on PE 0.
	w := r.vertexOn(0, graph.KindApply)
	r.edge(root, w, graph.ReqVital)
	r.edge(w, w, graph.ReqVital)
	w.Lock()
	w.AddRequester(root.ID, graph.ReqVital)
	w.AddRequester(w.ID, graph.ReqVital)
	w.Unlock()

	// Live region: live1 on PE 0 demands live2 on PE 1; the demand is in
	// transit through the fabric at snapshot time.
	live1 := r.vertexOn(0, graph.KindApply)
	live2 := r.vertexOn(1, graph.KindApply)
	r.edge(root, live1, graph.ReqVital)
	r.edge(live1, live2, graph.ReqVital)
	live2.Lock()
	live2.AddRequester(live1.ID, graph.ReqVital)
	live2.Unlock()

	r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: live1.ID, Dst: live2.ID, Req: graph.ReqVital})
	r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})
	if r.mach.InTransit() == 0 {
		t.Fatal("test setup: cross-partition demand should be in transit")
	}

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
	// The in-transit-awaited vertices must not even be nominated.
	for _, id := range col.PendingDeadlocked() {
		if id == live1.ID || id == live2.ID {
			t.Fatalf("in-transit-awaited vertex v%d nominated as deadlock candidate (pending=%v)",
				id, col.PendingDeadlocked())
		}
	}
	// Second M_T pass confirms the untouched knot (two-phase verdict).
	col.RunCycle()
	for _, id := range reported {
		if id == live1.ID || id == live2.ID {
			t.Fatalf("in-transit-awaited vertex v%d misreported as deadlocked (reported=%v)",
				id, reported)
		}
	}
	if len(reported) != 1 || reported[0] != w.ID {
		t.Fatalf("deadlocked = %v, want exactly [%d]", reported, w.ID)
	}
}
