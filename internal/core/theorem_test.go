package core

import (
	"math/rand"
	"testing"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/task"
)

// liveSet returns the vertices reachable from root via args right now.
func liveSet(store *graph.Store, root graph.VertexID) map[graph.VertexID]bool {
	seen := make(map[graph.VertexID]bool)
	stack := []graph.VertexID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == graph.NilVertex || seen[id] {
			continue
		}
		seen[id] = true
		v := store.Vertex(id)
		if v == nil {
			continue
		}
		v.Lock()
		stack = append(stack, v.Args()...)
		v.Unlock()
	}
	return seen
}

// randomMutation performs one legal mutation on the live region through the
// cooperating primitives (the reduction process never mutates garbage, per
// reduction axiom 3).
func randomMutation(rng *rand.Rand, r *rig, root graph.VertexID) {
	live := liveSet(r.store, root)
	ids := make([]graph.VertexID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return
	}
	pick := func() *graph.Vertex { return r.store.Vertex(ids[rng.Intn(len(ids))]) }

	switch rng.Intn(4) {
	case 0: // delete a random edge from a live vertex
		a := pick()
		a.Lock()
		var b graph.VertexID
		if args := a.Args(); len(args) > 0 {
			b = args[rng.Intn(len(args))]
		}
		a.Unlock()
		if b != graph.NilVertex {
			r.mut.DeleteReference(a, r.store.Vertex(b))
		}
	case 1: // add-reference over a random adjacent triple
		a := pick()
		a.Lock()
		var bid graph.VertexID
		if args := a.Args(); len(args) > 0 {
			bid = args[rng.Intn(len(args))]
		}
		a.Unlock()
		if bid == graph.NilVertex {
			return
		}
		b := r.store.Vertex(bid)
		b.Lock()
		var cid graph.VertexID
		if args := b.Args(); len(args) > 0 {
			cid = args[rng.Intn(len(args))]
		}
		b.Unlock()
		if cid == graph.NilVertex || cid == a.ID {
			return
		}
		r.mut.AddReference(a, b, r.store.Vertex(cid), graph.ReqKind(rng.Intn(3)))
	case 2: // expand-node: splice a fresh pair below a live vertex
		a := pick()
		n1, err := r.mut.Alloc(0, graph.KindApply, 0)
		if err != nil {
			return
		}
		n2, err := r.mut.Alloc(0, graph.KindInt, int64(rng.Intn(100)))
		if err != nil {
			return
		}
		r.mut.ExpandNode(a, []*graph.Vertex{n1, n2}, func() {
			n1.AddArg(n2.ID, graph.ReqVital)
			a.AddArg(n1.ID, graph.ReqKind(rng.Intn(3)))
		})
	case 3: // register a request along an existing live edge
		a := pick()
		a.Lock()
		var bid graph.VertexID
		if args := a.Args(); len(args) > 0 {
			bid = args[rng.Intn(len(args))]
		}
		a.Unlock()
		if bid != graph.NilVertex {
			kinds := []graph.ReqKind{graph.ReqEager, graph.ReqVital}
			r.registerRequest(a, r.store.Vertex(bid), kinds[rng.Intn(2)])
		}
	}
}

// buildRandomGraph wires n vertices with random edges from vs[0].
func buildRandomGraph(rng *rand.Rand, r *rig, n int) []*graph.Vertex {
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		vs[i] = r.vertex(graph.KindApply)
	}
	for i := 0; i < n*2; i++ {
		a := vs[rng.Intn(n)]
		b := vs[rng.Intn(n)]
		r.edge(a, b, graph.ReqKind(rng.Intn(3)))
	}
	return vs
}

// TestTheorem1Containments is experiment E5: for arbitrary graphs and
// arbitrary mid-marking mutations,
//
//	GAR(t_b) ⊆ GAR'(t_c) ⊆ GAR(t_c)
//
// where GAR' is what the concurrent M_R identifies as garbage: all garbage
// present when marking began is found, and nothing is erroneously
// identified.
func TestTheorem1Containments(t *testing.T) { atEachBudget(t, testTheorem1Containments) }

func testTheorem1Containments(t *testing.T, budget int) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 1+int(seed%4), seed, true)
		r.marker.budget = budget
		vs := buildRandomGraph(rng, r, 8+rng.Intn(25))
		root := vs[0]

		// t_b: snapshot the garbage set as marking starts.
		resB := analysis.Analyze(r.store.Snapshot(), root.ID, nil)
		epochAtStart := r.marker.Epoch(graph.CtxR) + 1

		r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
		steps, mutations := 0, 0
		for !r.marker.Done(graph.CtxR) {
			if mutations < 40 && rng.Intn(3) == 0 {
				randomMutation(rng, r, root.ID)
				mutations++
			}
			if !r.mach.Step() {
				break
			}
			steps++
			if steps > 500_000 {
				t.Fatalf("seed %d: marking did not terminate", seed)
			}
		}
		if !r.marker.Done(graph.CtxR) {
			t.Fatalf("seed %d: marking incomplete", seed)
		}

		// t_c: the marker's view of garbage (GAR' = V − R' − F, honoring
		// axiom 1 for fresh allocations) versus the oracle's.
		resC := analysis.Analyze(r.store.Snapshot(), root.ID, nil)
		epoch := r.marker.Epoch(graph.CtxR)
		if epoch != epochAtStart {
			t.Fatalf("seed %d: unexpected epoch churn", seed)
		}
		markerGar := make(map[graph.VertexID]bool)
		r.store.ForEach(func(v *graph.Vertex) {
			v.Lock()
			defer v.Unlock()
			if v.Kind == graph.KindFree || v.Red.AllocEpoch >= epoch {
				return
			}
			if v.RCtx.StateAt(epoch) == graph.Unmarked {
				markerGar[v.ID] = true
			}
		})

		for id := range resB.Gar {
			if !markerGar[id] {
				t.Errorf("seed %d: v%d garbage at t_b but not identified (left containment)", seed, id)
			}
		}
		for id := range markerGar {
			if !resC.Gar[id] {
				t.Errorf("seed %d: v%d identified as garbage but live at t_c (right containment)", seed, id)
			}
		}
		if n := r.marker.UnderflowCount(graph.CtxR); n != 0 {
			t.Fatalf("seed %d: underflows %d", seed, n)
		}
	}
}

// TestTheorem2Containments is experiment E6: with M_T executing before M_R,
//
//	DL_v(t_a) ⊆ DL'_v(t_c) ⊆ DL_v(t_c)
//
// deadlocked vertices present before M_T are found, and no vertex is
// erroneously reported deadlocked — even with live-region mutation churn
// during both marking phases.
func TestTheorem2Containments(t *testing.T) { atEachBudget(t, testTheorem2Containments) }

func testTheorem2Containments(t *testing.T, budget int) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		r := newRig(t, 2, seed, true)
		r.marker.budget = budget
		root := r.vertex(graph.KindApply)

		// Deadlocked knot: root vitally depends on k1; k1 ↔ k2 vitally
		// depend on each other with mutual requests and no task activity.
		k1 := r.vertex(graph.KindApply)
		k2 := r.vertex(graph.KindApply)
		r.edge(root, k1, graph.ReqVital)
		r.edge(k1, k2, graph.ReqVital)
		r.edge(k2, k1, graph.ReqVital)
		r.request(root, k1, graph.ReqVital)
		r.request(k1, k2, graph.ReqVital)
		r.request(k2, k1, graph.ReqVital)

		// Live region with task activity and room for churn.
		live := make([]*graph.Vertex, 6)
		prev := root
		for i := range live {
			live[i] = r.vertex(graph.KindApply)
			r.edge(prev, live[i], graph.ReqVital)
			r.request(prev, live[i], graph.ReqVital)
			prev = live[i]
		}
		leafA := r.vertex(graph.KindInt)
		r.edge(prev, leafA, graph.ReqNone)

		r.mach.SetHandler(NewDispatcher(r.marker, parkReducer(r.mach)))
		r.mach.Spawn(task.Task{Kind: task.Demand, Src: prev.ID, Dst: leafA.ID, Req: graph.ReqVital})
		r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})

		// t_a: oracle deadlock set as M_T begins.
		var poolTasks []task.Task
		for i := 0; i < r.mach.PEs(); i++ {
			r.mach.Pool(i).Each(func(tk task.Task) { poolTasks = append(poolTasks, tk) })
		}
		resA := analysis.Analyze(r.store.Snapshot(), root.ID, poolTasks)

		col := NewCollector(r.marker, CollectorConfig{
			MTEvery: 1,
		})
		col.SetRoot(root.ID)
		// Drive the cycle manually so mutations interleave with marking.
		col.mu.Lock()
		col.cycleN++
		col.mu.Unlock()
		roots := col.taskRoots()
		r.marker.StartCycle(graph.CtxT, roots)
		muts := 0
		for !r.marker.Done(graph.CtxT) {
			if muts < 20 && rng.Intn(4) == 0 {
				mutateLiveOnly(rng, r, live)
				muts++
			}
			if !r.mach.Step() {
				break
			}
		}
		col.mu.Lock()
		col.lastTEpoch = r.marker.Epoch(graph.CtxT)
		col.mu.Unlock()

		r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
		muts = 0
		for !r.marker.Done(graph.CtxR) {
			if muts < 20 && rng.Intn(4) == 0 {
				mutateLiveOnly(rng, r, live)
				muts++
			}
			if !r.mach.Step() {
				break
			}
		}
		if !r.marker.Done(graph.CtxT) || !r.marker.Done(graph.CtxR) {
			t.Fatalf("seed %d: marking incomplete", seed)
		}

		rep := CycleReport{MTRan: true, Completed: true}
		col.restructure(&rep)

		// t_c oracle.
		poolTasks = poolTasks[:0]
		for i := 0; i < r.mach.PEs(); i++ {
			r.mach.Pool(i).Each(func(tk task.Task) { poolTasks = append(poolTasks, tk) })
		}
		resC := analysis.Analyze(r.store.Snapshot(), root.ID, poolTasks)

		reported := make(map[graph.VertexID]bool)
		for _, id := range rep.Deadlocked {
			reported[id] = true
		}
		for id := range resA.DLv {
			if !reported[id] {
				t.Errorf("seed %d: v%d deadlocked at t_a but not reported", seed, id)
			}
		}
		for id := range reported {
			if !resC.DLv[id] {
				t.Errorf("seed %d: v%d falsely reported deadlocked", seed, id)
			}
		}
		if !reported[k1.ID] || !reported[k2.ID] {
			t.Errorf("seed %d: knot not fully reported: %v", seed, rep.Deadlocked)
		}
	}
}

// mutateLiveOnly churns the live chain without touching the deadlocked knot
// (deadlocked regions are quiescent by definition).
func mutateLiveOnly(rng *rand.Rand, r *rig, live []*graph.Vertex) {
	a := live[rng.Intn(len(live))]
	switch rng.Intn(2) {
	case 0:
		n1, err := r.mut.Alloc(0, graph.KindInt, int64(rng.Intn(10)))
		if err != nil {
			return
		}
		r.mut.ExpandNode(a, []*graph.Vertex{n1}, func() {
			a.AddArg(n1.ID, graph.ReqNone)
		})
	case 1:
		a.Lock()
		var bid graph.VertexID
		for i := len(a.Args()) - 1; i >= 0; i-- {
			if a.ReqKindAt(i) == graph.ReqNone {
				bid = a.Args()[i]
				break
			}
		}
		a.Unlock()
		if bid != graph.NilVertex {
			r.mut.DeleteReference(a, r.store.Vertex(bid))
		}
	}
}
