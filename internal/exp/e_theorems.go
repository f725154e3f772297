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
	register(Experiment{ID: "thm1", Title: "Theorem 1: GAR(t_b) ⊆ GAR' ⊆ GAR(t_c) under mutation", Run: runThm1})
	register(Experiment{ID: "thm2", Title: "Theorem 2: DL(t_a) ⊆ DL' ⊆ DL(t_c), M_T before M_R", Run: runThm2})
}

// markRig is a deterministic marking stack over a fresh store.
type markRig struct {
	store  *graph.Store
	mach   *sched.Machine
	marker *core.Marker
	mut    *core.Mutator
}

func newMarkRig(pes int, seed int64) *markRig {
	store := graph.NewStore(graph.Config{Partitions: pes})
	mach := sched.New(sched.Config{
		PEs: pes, Mode: sched.Deterministic, Seed: seed, Adversarial: true,
		PartOf: store.PartitionOf,
	})
	marker := core.NewMarker(store, mach)
	mach.SetHandler(core.NewDispatcher(marker, sched.HandlerFunc(func(_ int, tk task.Task) {
		if tk.Kind == task.Demand {
			mach.Spawn(tk)
		}
	})))
	mut := core.NewMutator(marker)
	return &markRig{store: store, mach: mach, marker: marker, mut: mut}
}

// liveMutation performs one random connectivity mutation on the live
// region through the cooperating primitives.
func (r *markRig) liveMutation(rng *rand.Rand, root graph.VertexID) {
	live := make([]graph.VertexID, 0, 64)
	seen := map[graph.VertexID]bool{}
	stack := []graph.VertexID{root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id == graph.NilVertex || seen[id] {
			continue
		}
		seen[id] = true
		live = append(live, id)
		v := r.store.Vertex(id)
		if v == nil {
			continue
		}
		v.Lock()
		stack = append(stack, v.Args()...)
		v.Unlock()
	}
	if len(live) == 0 {
		return
	}
	a := r.store.Vertex(live[rng.Intn(len(live))])
	switch rng.Intn(3) {
	case 0: // drop a random edge
		a.Lock()
		var b graph.VertexID
		if args := a.Args(); len(args) > 0 {
			b = args[rng.Intn(len(args))]
		}
		a.Unlock()
		if b != graph.NilVertex {
			r.mut.DeleteReference(a, r.store.Vertex(b))
		}
	case 1: // add-reference over an adjacent triple
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
		if cid != graph.NilVertex && cid != a.ID {
			r.mut.AddReference(a, b, r.store.Vertex(cid), graph.ReqKind(rng.Intn(3)))
		}
	case 2: // expand-node with a fresh pair
		n1, err := r.mut.Alloc(0, graph.KindApply, 0)
		if err != nil {
			return
		}
		n2, err := r.mut.Alloc(0, graph.KindInt, int64(rng.Intn(50)))
		if err != nil {
			return
		}
		r.mut.ExpandNode(a, []*graph.Vertex{n1, n2}, func() {
			n1.AddArg(n2.ID, graph.ReqVital)
			a.AddArg(n1.ID, graph.ReqKind(rng.Intn(3)))
		})
	}
}

func runThm1(cfg Config) (*Table, error) {
	sizes := []int{200, 1000, 4000}
	peList := []int{1, 4, 8}
	if cfg.Quick {
		sizes = []int{100}
		peList = []int{2}
	}
	t := &Table{
		ID:      "thm1",
		Title:   "garbage identification containments with concurrent mutation",
		Columns: []string{"|V|", "PEs", "mutations", "|GAR(t_b)|", "|GAR'|", "|GAR(t_c)|", "left ⊆", "right ⊆"},
	}
	for _, n := range sizes {
		for _, pes := range peList {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n+pes)))
			r := newMarkRig(pes, cfg.Seed)
			root, _, err := workload.RandomGraph(rng, r.store, n, 2.0)
			if err != nil {
				return nil, err
			}

			resB := analysis.Analyze(r.store.Snapshot(), root, nil)
			r.marker.StartCycle(graph.CtxR, []core.Root{{ID: root, Prior: graph.PriorVital}})
			muts := 0
			maxMuts := n / 10
			for !r.marker.Done(graph.CtxR) {
				if muts < maxMuts && rng.Intn(3) == 0 {
					r.liveMutation(rng, root)
					muts++
				}
				if !r.mach.Step() {
					break
				}
			}
			if !r.marker.Done(graph.CtxR) {
				return t, fmt.Errorf("thm1: marking incomplete at n=%d", n)
			}
			resC := analysis.Analyze(r.store.Snapshot(), root, nil)

			epoch := r.marker.Epoch(graph.CtxR)
			markerGar := map[graph.VertexID]bool{}
			r.store.ForEach(func(v *graph.Vertex) {
				v.Lock()
				defer v.Unlock()
				if v.Kind == graph.KindFree || !graph.EpochBefore(v.Red.AllocEpoch, epoch) {
					return
				}
				if v.RCtx.StateAt(epoch) == graph.Unmarked {
					markerGar[v.ID] = true
				}
			})

			left, right := true, true
			for id := range resB.Gar {
				if !markerGar[id] {
					left = false
				}
			}
			for id := range markerGar {
				if !resC.Gar[id] {
					right = false
				}
			}
			t.AddRow(n, pes, muts, len(resB.Gar), len(markerGar), len(resC.Gar), left, right)
			if !left || !right {
				return t, fmt.Errorf("thm1: containment violated at n=%d pes=%d", n, pes)
			}
		}
	}
	t.Note("GAR' = V − R' − F honoring reduction axiom 1 for mid-cycle allocations")
	return t, nil
}

func runThm2(cfg Config) (*Table, error) {
	knots := []int{1, 3, 6}
	if cfg.Quick {
		knots = []int{2}
	}
	t := &Table{
		ID:      "thm2",
		Title:   "deadlock identification containments (M_T before M_R)",
		Columns: []string{"knots", "|DL(t_a)|", "reported", "|DL(t_c)|", "left ⊆", "right ⊆"},
	}
	for _, k := range knots {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
		r := newMarkRig(2, cfg.Seed+int64(k))
		b := graph.NewBuilder(r.store, 0)

		root := b.Hole()
		root.Lock()
		root.Kind = graph.KindApply
		root.Unlock()

		// k deadlocked 2-knots hanging vitally off the root.
		var knotIDs []graph.VertexID
		for i := 0; i < k; i++ {
			k1, k2 := b.Hole(), b.Hole()
			for _, h := range []*graph.Vertex{k1, k2} {
				h.Lock()
				h.Kind = graph.KindApply
				h.Unlock()
			}
			link := func(x, y *graph.Vertex) {
				x.Lock()
				x.AddArg(y.ID, graph.ReqVital)
				x.Unlock()
				y.Lock()
				y.AddRequester(x.ID, graph.ReqVital)
				y.Unlock()
			}
			link(root, k1)
			link(k1, k2)
			link(k2, k1)
			knotIDs = append(knotIDs, k1.ID, k2.ID)
		}

		// Live chain with task activity.
		prev := root
		var liveChain []*graph.Vertex
		for i := 0; i < 8; i++ {
			nxt := b.Hole()
			nxt.Lock()
			nxt.Kind = graph.KindApply
			nxt.Unlock()
			prev.Lock()
			prev.AddArg(nxt.ID, graph.ReqVital)
			prev.Unlock()
			nxt.Lock()
			nxt.AddRequester(prev.ID, graph.ReqVital)
			nxt.Unlock()
			liveChain = append(liveChain, nxt)
			prev = nxt
		}
		leaf := b.Int(1)
		prev.Lock()
		prev.AddArg(leaf.ID, graph.ReqNone)
		prev.Unlock()
		if err := b.Err(); err != nil {
			return nil, err
		}
		r.mach.Spawn(task.Task{Kind: task.Demand, Src: prev.ID, Dst: leaf.ID, Req: graph.ReqVital})
		r.mach.Spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital})

		snapTasks := func() []task.Task {
			var ts []task.Task
			for i := 0; i < r.mach.PEs(); i++ {
				r.mach.Pool(i).Each(func(tk task.Task) { ts = append(ts, tk) })
			}
			return ts
		}
		resA := analysis.Analyze(r.store.Snapshot(), root.ID, snapTasks())

		col := core.NewCollector(r.marker, core.CollectorConfig{MTEvery: 1})
		col.SetRoot(root.ID)
		var reported []graph.VertexID
		colCfgRun := func() core.CycleReport { return col.RunCycle() }
		// Mutate the live chain mid-cycle by interleaving explicit steps:
		// RunCycle pumps internally, so mutations ride on the parked-task
		// respawns; for this experiment the churn matters less than the
		// ordering, so run the cycle directly.
		rep := colCfgRun()
		reported = append(reported, rep.Deadlocked...)
		_ = liveChain
		_ = rng

		resC := analysis.Analyze(r.store.Snapshot(), root.ID, snapTasks())

		repSet := map[graph.VertexID]bool{}
		for _, id := range reported {
			repSet[id] = true
		}
		left, right := true, true
		for id := range resA.DLv {
			if !repSet[id] {
				left = false
			}
		}
		for id := range repSet {
			if !resC.DLv[id] {
				right = false
			}
		}
		t.AddRow(k, len(resA.DLv), len(reported), len(resC.DLv), left, right)
		if !left || !right {
			return t, fmt.Errorf("thm2: containment violated at k=%d", k)
		}
		if len(reported) < 2*k {
			return t, fmt.Errorf("thm2: only %d of %d knot vertices reported", len(reported), 2*k)
		}
		_ = knotIDs
	}
	return t, nil
}
