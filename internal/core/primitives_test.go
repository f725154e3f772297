package core

import (
	"testing"

	"dgr/internal/graph"
)

// TestSection42Race reproduces the motivating race of §4.2: graph a→b→c,
// marking starts at a; mid-marking the mutator runs add-reference(a,b,c)
// then delete-reference(b,c), leaving b ← a → c. Without cooperation, c is
// never marked once marking has passed a. With the cooperating primitives,
// c must be marked at the end of the cycle for EVERY interleaving point.
//
// The rig runs one task per arc: a wave would mark a, b and c in one step
// (they share a partition) and the mutation would never land mid-marking.
func TestSection42Race(t *testing.T) {
	for mutateAt := 0; mutateAt < 12; mutateAt++ {
		midMarking := 0
		for seed := int64(0); seed < 8; seed++ {
			r := newRig(t, 2, seed, true).taskPerArc()
			a := r.vertex(graph.KindApply)
			b := r.vertex(graph.KindApply)
			c := r.vertex(graph.KindApply)
			r.edge(a, b, graph.ReqVital)
			r.edge(b, c, graph.ReqVital)

			r.marker.StartCycle(graph.CtxR, []Root{{ID: a.ID, Prior: graph.PriorVital}})

			mutated := false
			steps := 0
			for !r.marker.Done(graph.CtxR) {
				if steps == mutateAt && !mutated {
					r.mut.AddReference(a, b, c, graph.ReqVital)
					r.mut.DeleteReference(b, c)
					mutated = true
					r.assertNoViolations(graph.CtxR)
				}
				if !r.mach.Step() {
					break
				}
				steps++
				r.assertNoViolations(graph.CtxR)
			}
			if !mutated {
				// Marking finished before the mutation point; mutate after
				// completion (marking inactive: plain connectivity change).
				r.mut.AddReference(a, b, c, graph.ReqVital)
				r.mut.DeleteReference(b, c)
				continue
			}
			if !r.marker.Done(graph.CtxR) {
				t.Fatalf("mutateAt=%d seed=%d: marking did not terminate", mutateAt, seed)
			}
			if st := r.stateOf(c, graph.CtxR); st != graph.Marked {
				t.Fatalf("mutateAt=%d seed=%d: c lost by marking (state %v)", mutateAt, seed, st)
			}
			if n := r.marker.UnderflowCount(graph.CtxR); n != 0 {
				t.Fatalf("mutateAt=%d seed=%d: mt-cnt underflows %d", mutateAt, seed, n)
			}
			midMarking++
		}
		// Marking a→b→c takes six tasks (three marks, three returns), so every
		// earlier point must really have been hit with the cycle running.
		if mutateAt < 6 && midMarking == 0 {
			t.Fatalf("mutateAt=%d: no trial mutated mid-marking; the test no longer interleaves", mutateAt)
		}
	}
}

func TestAddReferenceOutsideMarking(t *testing.T) {
	r := newRig(t, 1, 1, false)
	a := r.vertex(graph.KindApply)
	b := r.vertex(graph.KindApply)
	c := r.vertex(graph.KindInt)
	r.edge(a, b, graph.ReqVital)
	r.edge(b, c, graph.ReqVital)

	r.mut.AddReference(a, b, c, graph.ReqEager)
	a.Lock()
	if !a.HasArg(c.ID) || a.ReqKindOf(c.ID) != graph.ReqEager {
		t.Fatalf("edge a→c missing or wrong kind: %v", a)
	}
	a.Unlock()
	if got := r.counters.CoopMarks.Load(); got != 0 {
		t.Fatalf("cooperation marks outside marking = %d, want 0", got)
	}
}

func TestDeleteReference(t *testing.T) {
	r := newRig(t, 1, 1, false)
	a := r.vertex(graph.KindApply)
	b := r.vertex(graph.KindInt)
	r.edge(a, b, graph.ReqVital)
	rk, ok := r.mut.DeleteReference(a, b)
	if !ok || rk != graph.ReqVital {
		t.Fatalf("DeleteReference = (%v,%v)", rk, ok)
	}
	if _, ok := r.mut.DeleteReference(a, b); ok {
		t.Fatal("double delete succeeded")
	}
}

func TestExpandNodeUnderTransient(t *testing.T) {
	// Splice fresh vertices below a while a is transient: marks must be
	// spawned on a's new children and everything must end marked.
	for mutateAt := 0; mutateAt < 8; mutateAt++ {
		r := newRig(t, 2, int64(mutateAt), false)
		root := r.vertex(graph.KindApply)
		a := r.vertex(graph.KindApply)
		x := r.vertex(graph.KindInt) // existing descendant referenced by fresh node
		r.edge(root, a, graph.ReqVital)
		r.edge(a, x, graph.ReqVital)

		r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})

		var n1, n2 *graph.Vertex
		steps := 0
		done := false
		for !r.marker.Done(graph.CtxR) {
			if steps == mutateAt && n1 == nil {
				var err error
				n1, err = r.mut.Alloc(0, graph.KindApply, 0)
				if err != nil {
					t.Fatal(err)
				}
				n2, err = r.mut.Alloc(0, graph.KindInt, 7)
				if err != nil {
					t.Fatal(err)
				}
				// n1 references the fresh n2 and the existing descendant x.
				r.mut.ExpandNode(a, []*graph.Vertex{n1, n2}, func() {
					n1.AddArg(n2.ID, graph.ReqVital)
					n1.AddArg(x.ID, graph.ReqVital)
					a.SetArgs()
					a.AddArg(n1.ID, graph.ReqVital)
				})
				r.assertNoViolations(graph.CtxR)
			}
			if !r.mach.Step() {
				done = true
				break
			}
			steps++
			r.assertNoViolations(graph.CtxR)
		}
		_ = done
		if n1 == nil {
			continue // marking finished before splice point
		}
		if !r.marker.Done(graph.CtxR) {
			t.Fatalf("mutateAt=%d: marking did not terminate", mutateAt)
		}
		r.assertMarked(graph.CtxR, root, a, n1, n2, x)
	}
}

func TestExpandNodeUnderMarkedParent(t *testing.T) {
	// If a is already marked when the splice happens, the fresh subgraph is
	// marked synchronously ("if marked(a) then mark(g)").
	r := newRig(t, 1, 3, false)
	root := r.vertex(graph.KindApply)
	a := r.vertex(graph.KindApply)
	r.edge(root, a, graph.ReqVital)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})

	// Marking is done (inactive) — simulate the mid-cycle case by starting
	// a new cycle, finishing it, then... instead directly test the helper:
	// start a cycle over a 1-vertex graph so a is marked while active.
	big := r.vertex(graph.KindApply) // keeps the cycle alive: unreachable chain
	chain := a
	for i := 0; i < 6; i++ {
		nxt := r.vertex(graph.KindApply)
		r.edge(chain, nxt, graph.ReqVital)
		chain = nxt
	}
	_ = big

	r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
	// Pump until a is marked but the cycle is still active.
	for r.stateOf(a, graph.CtxR) != graph.Marked && r.mach.Step() {
	}
	if !r.marker.Active(graph.CtxR) && r.stateOf(a, graph.CtxR) != graph.Marked {
		t.Skip("could not catch a marked while cycle active")
	}
	if r.stateOf(a, graph.CtxR) == graph.Marked && r.marker.Active(graph.CtxR) {
		n1, err := r.mut.Alloc(0, graph.KindInt, 1)
		if err != nil {
			t.Fatal(err)
		}
		r.mut.ExpandNode(a, []*graph.Vertex{n1}, func() {
			a.AddArg(n1.ID, graph.ReqVital)
		})
		if st := r.stateOf(n1, graph.CtxR); st != graph.Marked {
			t.Fatalf("fresh vertex under marked parent: state %v, want marked", st)
		}
	}
	r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxR) }, 100000)
	r.assertNoViolations(graph.CtxR)
}

func TestRegisterAndCompleteRequest(t *testing.T) {
	r := newRig(t, 1, 1, false)
	x := r.vertex(graph.KindApply)
	y := r.vertex(graph.KindApply)
	r.edge(x, y, graph.ReqNone)

	if !r.registerRequest(x, y, graph.ReqVital) {
		t.Fatal("registering the request failed")
	}
	x.Lock()
	if x.ReqKindOf(y.ID) != graph.ReqVital {
		t.Fatal("edge not vital after register")
	}
	x.Unlock()
	y.Lock()
	if !y.HasRequester(x.ID) {
		t.Fatal("x not in requested(y)")
	}
	y.Unlock()

	r.mut.CompleteRequest(x, y)
	x.Lock()
	if x.ReqKindOf(y.ID) != graph.ReqNone {
		t.Fatal("edge not returned to remainder after completion")
	}
	x.Unlock()
	y.Lock()
	if y.HasRequester(x.ID) {
		t.Fatal("x still in requested(y) after completion")
	}
	y.Unlock()

	// Registering on a missing edge fails.
	z := r.vertex(graph.KindInt)
	if r.registerRequest(x, z, graph.ReqVital) {
		t.Fatal("registering a request on an absent edge succeeded")
	}
	z.Lock()
	if z.HasRequester(x.ID) {
		t.Fatal("x in requested(z) after a request on an absent edge")
	}
	z.Unlock()
}

func TestRegisterRequestCooperatesWithMT(t *testing.T) {
	// While M_T is marking, a new requester x of an already-T-marked y must
	// still end up T-marked (via the extra-root path), so it cannot be
	// falsely reported deadlocked. The request is registered on the path the
	// engine takes: SetRequestKind at x, then AddRequesterCoop at y. Every
	// arc is a task of its own, so that the request lands mid-cycle.
	midCycle := 0
	for mutateAt := 0; mutateAt < 8; mutateAt++ {
		r := newRig(t, 2, int64(mutateAt)+100, false).taskPerArc()
		start := r.vertex(graph.KindApply)
		y := r.vertex(graph.KindApply)
		extra := r.vertex(graph.KindApply) // extends the cycle's runtime
		r.edge(start, y, graph.ReqNone)
		r.edge(y, extra, graph.ReqNone)
		chain := extra
		for i := 0; i < 5; i++ {
			nxt := r.vertex(graph.KindApply)
			r.edge(chain, nxt, graph.ReqNone)
			chain = nxt
		}
		x := r.vertex(graph.KindApply)
		r.edge(x, y, graph.ReqNone)

		r.marker.StartCycle(graph.CtxT, []Root{{ID: start.ID}})
		steps := 0
		mutated := false
		for !r.marker.Done(graph.CtxT) {
			if steps == mutateAt && !mutated {
				r.registerRequest(x, y, graph.ReqVital)
				mutated = true
			}
			if !r.mach.Step() {
				break
			}
			steps++
		}
		if !mutated {
			continue
		}
		midCycle++
		if !r.marker.Done(graph.CtxT) {
			t.Fatalf("mutateAt=%d: M_T did not terminate", mutateAt)
		}
		if st := r.stateOf(x, graph.CtxT); st != graph.Marked {
			t.Fatalf("mutateAt=%d: requester x not T-marked (state %v)", mutateAt, st)
		}
	}
	if midCycle < 2 {
		t.Fatalf("the request landed inside %d cycles, want at least 2", midCycle)
	}
}

func TestDereference(t *testing.T) {
	r := newRig(t, 1, 1, false)
	x := r.vertex(graph.KindApply)
	y := r.vertex(graph.KindApply)
	r.edge(x, y, graph.ReqEager)
	y.Lock()
	y.AddRequester(x.ID, graph.ReqEager)
	y.Unlock()

	r.mut.Dereference(x, y)
	x.Lock()
	if x.HasArg(y.ID) {
		t.Fatal("edge survived dereference")
	}
	x.Unlock()
	y.Lock()
	if y.HasRequester(x.ID) {
		t.Fatal("requester survived dereference")
	}
	y.Unlock()
}

func TestRelabelLeaf(t *testing.T) {
	r := newRig(t, 1, 1, false)
	v := r.vertex(graph.KindApply)
	c := r.vertex(graph.KindInt)
	r.edge(v, c, graph.ReqVital)
	r.mut.RelabelLeaf(v, graph.KindInt, 42)
	v.Lock()
	defer v.Unlock()
	if v.Kind != graph.KindInt || v.Val != 42 || len(v.Args()) != 0 {
		t.Fatalf("after relabel: %+v", v)
	}
}

func TestMutatorAllocStampsEpochs(t *testing.T) {
	r := newRig(t, 1, 1, false)
	root := r.vertex(graph.KindApply)
	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
	r.runCycle(graph.CtxT, Root{ID: root.ID})

	// A freshly claimed vertex carries the FreshAllocEpoch sentinel — it is
	// sweep-immune during allocation limbo, before any splice wires it in.
	v, err := r.mut.Alloc(0, graph.KindInt, 1)
	if err != nil {
		t.Fatal(err)
	}
	v.Lock()
	if v.Red.AllocEpoch != graph.FreshAllocEpoch {
		t.Fatalf("AllocEpoch = %d, want FreshAllocEpoch", v.Red.AllocEpoch)
	}
	if v.Red.AllocEpochT != graph.FreshAllocEpoch {
		t.Fatalf("AllocEpochT = %d, want FreshAllocEpoch", v.Red.AllocEpochT)
	}
	v.Unlock()

	// The splice stamps the real epochs at wiring time.
	r.mut.ExpandNode(root, []*graph.Vertex{v}, func() {
		root.AddArg(v.ID, graph.ReqNone)
	})
	v.Lock()
	defer v.Unlock()
	if v.Red.AllocEpoch != r.marker.Epoch(graph.CtxR) {
		t.Fatalf("AllocEpoch = %d, want %d", v.Red.AllocEpoch, r.marker.Epoch(graph.CtxR))
	}
	if v.Red.AllocEpochT != r.marker.Epoch(graph.CtxT) {
		t.Fatalf("AllocEpochT = %d, want %d", v.Red.AllocEpochT, r.marker.Epoch(graph.CtxT))
	}
}
