package core

import (
	"testing"

	"dgr/internal/graph"
)

func TestCollapseToIndOutsideMarking(t *testing.T) {
	r := newRig(t, 1, 1, false)
	v := r.vertex(graph.KindApply)
	mid := r.vertex(graph.KindApply)
	c := r.vertex(graph.KindInt)
	r.edge(v, mid, graph.ReqVital)
	r.edge(mid, c, graph.ReqVital)

	r.mut.CollapseToInd(v, c)
	v.Lock()
	defer v.Unlock()
	if v.Kind != graph.KindInd || len(v.Args()) != 1 || v.Args()[0] != c.ID {
		t.Fatalf("collapse: %+v", v)
	}
}

// TestCollapseToIndDuringMarking sweeps the K-reduction rewrite (collapse
// to a deep descendant) across marking interleavings: c must never be lost.
func TestCollapseToIndDuringMarking(t *testing.T) {
	for mutateAt := 0; mutateAt < 10; mutateAt++ {
		for seed := int64(0); seed < 6; seed++ {
			r := newRig(t, 2, seed, true)
			root := r.vertex(graph.KindApply)
			v := r.vertex(graph.KindApply)
			mid := r.vertex(graph.KindApply)
			c := r.vertex(graph.KindInt)
			other := r.vertex(graph.KindApply) // widens the cycle window
			r.edge(root, v, graph.ReqVital)
			r.edge(root, other, graph.ReqVital)
			chain := other
			for i := 0; i < 5; i++ {
				nxt := r.vertex(graph.KindApply)
				r.edge(chain, nxt, graph.ReqVital)
				chain = nxt
			}
			r.edge(v, mid, graph.ReqVital)
			r.edge(mid, c, graph.ReqVital)

			r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
			steps, mutated := 0, false
			for !r.marker.Done(graph.CtxR) {
				if steps == mutateAt && !mutated {
					r.mut.CollapseToInd(v, c) // drops v→mid; mid becomes garbage
					mutated = true
				}
				if !r.mach.Step() {
					break
				}
				steps++
			}
			if !mutated || !r.marker.Done(graph.CtxR) {
				continue
			}
			if st := r.stateOf(c, graph.CtxR); st != graph.Marked {
				t.Fatalf("mutateAt=%d seed=%d: c lost (state %v)", mutateAt, seed, st)
			}
			if n := r.marker.UnderflowCount(graph.CtxR); n != 0 {
				t.Fatalf("mutateAt=%d seed=%d: underflows %d", mutateAt, seed, n)
			}
		}
	}
}

func TestMakeSelfKnotIdempotent(t *testing.T) {
	r := newRig(t, 1, 1, false)
	v := r.vertex(graph.KindApply)
	r.mut.MakeSelfKnot(v)
	r.mut.MakeSelfKnot(v)
	v.Lock()
	defer v.Unlock()
	count := 0
	for _, a := range v.Args() {
		if a == v.ID {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("self edges = %d, want 1", count)
	}
	if len(v.Requested()) != 1 || v.Requested()[0].Src != v.ID {
		t.Fatalf("requested = %v", v.Requested())
	}
}

func TestAddRequesterCoopUpgrade(t *testing.T) {
	r := newRig(t, 1, 1, false)
	x := r.vertex(graph.KindApply)
	y := r.vertex(graph.KindApply)

	r.mut.AddRequesterCoop(y, x, graph.ReqEager)
	r.mut.AddRequesterCoop(y, x, graph.ReqVital) // upgrade, no duplicate
	r.mut.AddRequesterCoop(y, x, graph.ReqEager) // no downgrade
	y.Lock()
	defer y.Unlock()
	if len(y.Requested()) != 1 {
		t.Fatalf("requesters = %v", y.Requested())
	}
	if y.Requested()[0].Kind != graph.ReqVital {
		t.Fatalf("kind = %v, want vital", y.Requested()[0].Kind)
	}
}

func TestRewriteSelfReference(t *testing.T) {
	// The Y-combinator shape: v rewired to reference itself must not
	// deadlock the primitive or corrupt marking.
	r := newRig(t, 1, 2, false)
	root := r.vertex(graph.KindApply)
	v := r.vertex(graph.KindApply)
	f := r.vertex(graph.KindComb)
	r.edge(root, v, graph.ReqVital)
	r.edge(v, f, graph.ReqVital)

	r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
	r.mach.Step()
	r.mut.Rewrite(v, nil, []*graph.Vertex{f}, func() {
		v.SetArgs(f.ID, v.ID)
	})
	r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxR) }, 100000)
	if !r.marker.Done(graph.CtxR) {
		t.Fatal("marking did not terminate over self-edge")
	}
	r.assertMarked(graph.CtxR, root, v, f)
}

func TestRewriteFreshUnderActiveMT(t *testing.T) {
	// Rewrites during M_T must restamp fresh vertices so the deadlock
	// detector ignores them this cycle.
	r := newRig(t, 1, 3, false)
	start := r.vertex(graph.KindApply)
	chain := start
	for i := 0; i < 5; i++ {
		nxt := r.vertex(graph.KindApply)
		r.edge(chain, nxt, graph.ReqNone)
		chain = nxt
	}
	r.marker.StartCycle(graph.CtxT, []Root{{ID: start.ID}})
	r.mach.Step()

	n1, err := r.mut.Alloc(0, graph.KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	r.mut.Rewrite(chain, []*graph.Vertex{n1}, nil, func() {
		chain.AddArg(n1.ID, graph.ReqNone)
	})
	n1.Lock()
	stampT := n1.Red.AllocEpochT
	n1.Unlock()
	if stampT != r.marker.Epoch(graph.CtxT) {
		t.Fatalf("fresh vertex T-stamp %d, want %d", stampT, r.marker.Epoch(graph.CtxT))
	}
	r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxT) }, 100000)
}

// TestRewriteOperandUnderActiveMR is the M_R twin of the test above, and the
// other side of Rewrite's "no active cycle ⇒ skip the cover pass" branch:
// with a cycle running, an existing operand newly referenced from a marked v
// becomes an extra cycle root, and from a transient v gets a mark counted
// against v's mt-cnt; with none running the same rewrite spawns nothing.
func TestRewriteOperandUnderActiveMR(t *testing.T) {
	for _, want := range []graph.MarkState{graph.Marked, graph.Transient} {
		r := newRig(t, 1, 4, false).taskPerArc() // stops while v is in each state
		root := r.vertex(graph.KindApply)
		v := r.vertex(graph.KindApply)
		r.edge(root, v, graph.ReqVital)
		// A chain below root keeps the cycle open after v is marked; one
		// below v keeps v transient while its marks are outstanding.
		below := root
		if want == graph.Transient {
			below = v
		}
		for i := 0; i < 8; i++ {
			nxt := r.vertex(graph.KindApply)
			r.edge(below, nxt, graph.ReqVital)
			below = nxt
		}
		op := r.vertex(graph.KindInt) // exists, unreachable: unmarked all cycle
		attach := func() {
			r.mut.Rewrite(v, nil, []*graph.Vertex{op}, func() {
				v.AddArg(op.ID, graph.ReqNone)
			})
		}

		attach()
		if n := r.mach.Inflight(); n != 0 || r.counters.CoopMarks.Load() != 0 {
			t.Fatalf("%v: rewrite outside a cycle spawned %d tasks, %d coop marks",
				want, n, r.counters.CoopMarks.Load())
		}
		r.mut.DeleteReference(v, op)

		r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
		for r.stateOf(v, graph.CtxR) != want {
			if r.marker.Done(graph.CtxR) || !r.mach.Step() {
				t.Fatalf("v never became %v", want)
			}
		}
		r.assertUnmarked(graph.CtxR, op)
		st := &r.marker.ctxs[graph.CtxR]
		st.mu.Lock()
		rootsBefore := st.pendingRoots
		st.mu.Unlock()
		v.Lock()
		cntBefore := v.RCtx.MtCnt
		v.Unlock()

		attach()

		st.mu.Lock()
		newRoots := st.pendingRoots - rootsBefore
		st.mu.Unlock()
		v.Lock()
		newCnt := v.RCtx.MtCnt - cntBefore
		v.Unlock()
		if want == graph.Marked && (newRoots != 1 || newCnt != 0) {
			t.Fatalf("marked v: %d new roots, mt-cnt %+d; want 1 root, mt-cnt unchanged", newRoots, newCnt)
		}
		if want == graph.Transient && (newRoots != 0 || newCnt != 1) {
			t.Fatalf("transient v: %d new roots, mt-cnt %+d; want no root, mt-cnt +1", newRoots, newCnt)
		}
		if n := r.counters.CoopMarks.Load(); n != 1 {
			t.Fatalf("%v: %d coop marks, want 1", want, n)
		}

		r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxR) }, 100000)
		if !r.marker.Done(graph.CtxR) {
			t.Fatalf("%v: marking did not terminate", want)
		}
		if n := r.marker.UnderflowCount(graph.CtxR); n != 0 {
			t.Fatalf("%v: %d mt-cnt underflows", want, n)
		}
		r.assertMarked(graph.CtxR, root, v, op)
		r.assertNoViolations(graph.CtxR)
	}
}
