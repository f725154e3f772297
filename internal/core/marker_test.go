package core

import (
	"testing"

	"dgr/internal/graph"
)

func TestMarkLinearChain(t *testing.T) {
	r := newRig(t, 2, 1, false)
	root := r.vertex(graph.KindApply)
	a := r.vertex(graph.KindApply)
	b := r.vertex(graph.KindApply)
	c := r.vertex(graph.KindInt)
	r.edge(root, a, graph.ReqVital)
	r.edge(a, b, graph.ReqVital)
	r.edge(b, c, graph.ReqVital)
	orphan := r.vertex(graph.KindInt)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})

	r.assertMarked(graph.CtxR, root, a, b, c)
	r.assertUnmarked(graph.CtxR, orphan)
	r.assertNoViolations(graph.CtxR)
	if bad := CheckAllReachableMarked(r.store, r.marker, graph.CtxR, root.ID); len(bad) != 0 {
		t.Fatalf("reachable but unmarked: %v", bad)
	}
}

func TestMarkDiamondSharing(t *testing.T) {
	r := newRig(t, 4, 7, true)
	root := r.vertex(graph.KindApply)
	l := r.vertex(graph.KindApply)
	rt := r.vertex(graph.KindApply)
	shared := r.vertex(graph.KindInt)
	r.edge(root, l, graph.ReqVital)
	r.edge(root, rt, graph.ReqVital)
	r.edge(l, shared, graph.ReqVital)
	r.edge(rt, shared, graph.ReqVital)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
	r.assertMarked(graph.CtxR, root, l, rt, shared)
	r.assertNoViolations(graph.CtxR)
}

func TestMarkTerminatesOnCycles(t *testing.T) {
	r := newRig(t, 2, 3, false)
	root := r.vertex(graph.KindApply)
	a := r.vertex(graph.KindApply)
	b := r.vertex(graph.KindApply)
	selfy := r.vertex(graph.KindApply)
	// root → a → b → a (cycle), root → selfy → selfy (self-loop).
	r.edge(root, a, graph.ReqVital)
	r.edge(a, b, graph.ReqVital)
	r.edge(b, a, graph.ReqVital)
	r.edge(root, selfy, graph.ReqVital)
	r.edge(selfy, selfy, graph.ReqVital)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
	r.assertMarked(graph.CtxR, root, a, b, selfy)
	r.assertNoViolations(graph.CtxR)
}

func TestMarkPriorityMinPropagation(t *testing.T) {
	// R_e semantics: a vertex reached through a vital prefix and one eager
	// arc is eager (2) even if later arcs are vital.
	r := newRig(t, 2, 5, false)
	root := r.vertex(graph.KindApply)
	a := r.vertex(graph.KindApply) // root -eager→ a
	b := r.vertex(graph.KindApply) // a -vital→ b : still priority 2
	c := r.vertex(graph.KindApply) // b -none→ c : priority 1
	r.edge(root, a, graph.ReqEager)
	r.edge(a, b, graph.ReqVital)
	r.edge(b, c, graph.ReqNone)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})

	if got := r.priorOf(root); got != graph.PriorVital {
		t.Errorf("prior(root) = %d, want 3", got)
	}
	if got := r.priorOf(a); got != graph.PriorEager {
		t.Errorf("prior(a) = %d, want 2", got)
	}
	if got := r.priorOf(b); got != graph.PriorEager {
		t.Errorf("prior(b) = %d, want 2", got)
	}
	if got := r.priorOf(c); got != graph.PriorReserve {
		t.Errorf("prior(c) = %d, want 1", got)
	}
}

func TestMarkPriorityUpgrade(t *testing.T) {
	// shared is reachable via an eager path and a vital path; whichever is
	// traced first, the vital priority must prevail (the mark2 re-marking
	// path). Sweep seeds so both trace orders occur.
	for seed := int64(0); seed < 20; seed++ {
		r := newRig(t, 2, seed, true)
		root := r.vertex(graph.KindApply)
		e := r.vertex(graph.KindApply)
		v := r.vertex(graph.KindApply)
		shared := r.vertex(graph.KindApply)
		deep := r.vertex(graph.KindInt) // below shared: must also end vital
		r.edge(root, e, graph.ReqEager)
		r.edge(root, v, graph.ReqVital)
		r.edge(e, shared, graph.ReqVital)
		r.edge(v, shared, graph.ReqVital)
		r.edge(shared, deep, graph.ReqVital)

		r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})

		if got := r.priorOf(shared); got != graph.PriorVital {
			t.Fatalf("seed %d: prior(shared) = %d, want 3", seed, got)
		}
		if got := r.priorOf(deep); got != graph.PriorVital {
			t.Fatalf("seed %d: prior(deep) = %d, want 3 (re-marking must descend)", seed, got)
		}
		r.assertNoViolations(graph.CtxR)
	}
}

func TestMarkCtxTTracesTaskChildren(t *testing.T) {
	// M_T traces requested(v) ∪ (args(v) − req-args(v)).
	r := newRig(t, 2, 9, false)
	start := r.vertex(graph.KindApply)
	requested := r.vertex(graph.KindApply) // in args(start), vitally requested: NOT traced
	remainder := r.vertex(graph.KindApply) // in args(start), not requested: traced
	requester := r.vertex(graph.KindApply) // in requested(start): traced
	r.edge(start, requested, graph.ReqVital)
	r.edge(start, remainder, graph.ReqNone)
	r.request(requester, start, graph.ReqVital)

	r.runCycle(graph.CtxT, Root{ID: start.ID})

	r.assertMarked(graph.CtxT, start, remainder, requester)
	r.assertUnmarked(graph.CtxT, requested)
	r.assertNoViolations(graph.CtxT)
}

func TestMarkContextsIndependent(t *testing.T) {
	// Marking in R must not disturb T state and vice versa (§5.2: the
	// bookkeeping of M_T is distinct from M_R's).
	r := newRig(t, 1, 2, false)
	root := r.vertex(graph.KindApply)
	child := r.vertex(graph.KindInt)
	r.edge(root, child, graph.ReqNone)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
	r.assertMarked(graph.CtxR, root, child)
	r.assertUnmarked(graph.CtxT, root, child)

	r.runCycle(graph.CtxT, Root{ID: root.ID})
	r.assertMarked(graph.CtxT, root, child)
	r.assertMarked(graph.CtxR, root, child) // R cycle result preserved
}

func TestMarkEmptyRootsImmediatelyDone(t *testing.T) {
	r := newRig(t, 1, 1, false)
	done := r.marker.StartCycle(graph.CtxT, nil)
	select {
	case <-done:
	default:
		t.Fatal("empty cycle should be immediately done")
	}
	if !r.marker.Done(graph.CtxT) {
		t.Fatal("Done should report true")
	}
}

func TestMarkMultipleRoots(t *testing.T) {
	r := newRig(t, 2, 11, false)
	a := r.vertex(graph.KindApply)
	b := r.vertex(graph.KindApply)
	c := r.vertex(graph.KindInt)
	r.edge(a, c, graph.ReqNone)
	r.edge(b, c, graph.ReqNone)

	r.runCycle(graph.CtxT, Root{ID: a.ID}, Root{ID: b.ID})
	r.assertMarked(graph.CtxT, a, b, c)
}

func TestEpochAdvanceUnmarksEverything(t *testing.T) {
	r := newRig(t, 1, 1, false)
	root := r.vertex(graph.KindApply)
	child := r.vertex(graph.KindInt)
	r.edge(root, child, graph.ReqVital)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
	r.assertMarked(graph.CtxR, root, child)

	// A second cycle re-marks from scratch; between StartCycle and the
	// first task, everything is unmarked.
	r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
	r.assertUnmarked(graph.CtxR, root, child)
	r.mach.RunUntil(func() bool { return r.marker.Done(graph.CtxR) }, 100000)
	r.assertMarked(graph.CtxR, root, child)
}

func TestStaleMarkingTasksDropped(t *testing.T) {
	r := newRig(t, 1, 1, false)
	root := r.vertex(graph.KindApply)

	// Start a cycle but do not pump it; then start the next cycle. The
	// first cycle's root mark is now stale and must be dropped without
	// corrupting the second cycle.
	r.marker.StartCycle(graph.CtxR, []Root{{ID: root.ID, Prior: graph.PriorVital}})
	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
	r.assertMarked(graph.CtxR, root)
	if r.marker.StaleDropped(graph.CtxR) == 0 {
		t.Fatal("expected a stale task to be dropped")
	}
	if n := r.marker.UnderflowCount(graph.CtxR); n != 0 {
		t.Fatalf("underflows: %d", n)
	}
}

func TestMarkRequestTypeFunction(t *testing.T) {
	// request-type(c,v) of Figure 5-1 is realized by ReqKind.Priority.
	// Children of a vital root get exactly min(3, request-type).
	r := newRig(t, 1, 4, false)
	root := r.vertex(graph.KindApply)
	cv := r.vertex(graph.KindInt)
	ce := r.vertex(graph.KindInt)
	cr := r.vertex(graph.KindInt)
	r.edge(root, cv, graph.ReqVital)
	r.edge(root, ce, graph.ReqEager)
	r.edge(root, cr, graph.ReqNone)

	r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})

	if got := r.priorOf(cv); got != 3 {
		t.Errorf("vital child prior = %d", got)
	}
	if got := r.priorOf(ce); got != 2 {
		t.Errorf("eager child prior = %d", got)
	}
	if got := r.priorOf(cr); got != 1 {
		t.Errorf("reserve child prior = %d", got)
	}
}

func TestInvariantsHoldAtEveryStep(t *testing.T) { atEachBudget(t, testInvariantsHoldAtEveryStep) }

func testInvariantsHoldAtEveryStep(t *testing.T, budget int) {
	// Pump a marking cycle one step at a time over a random-ish shared
	// graph; check I1–I3 after every step.
	for seed := int64(0); seed < 5; seed++ {
		r := newRig(t, 3, seed, true)
		r.marker.budget = budget
		var vs []*graph.Vertex
		for i := 0; i < 12; i++ {
			vs = append(vs, r.vertex(graph.KindApply))
		}
		// Deterministic pseudo-random wiring (depends only on indices).
		for i := range vs {
			for j := range vs {
				if (i*7+j*13+int(seed))%5 == 0 && i != j {
					r.edge(vs[i], vs[j], graph.ReqKind((i+j)%3))
				}
			}
		}
		r.marker.StartCycle(graph.CtxR, []Root{{ID: vs[0].ID, Prior: graph.PriorVital}})
		for !r.marker.Done(graph.CtxR) {
			if !r.mach.Step() {
				t.Fatalf("seed %d: machine quiesced before marking done", seed)
			}
			r.assertNoViolations(graph.CtxR)
		}
		if bad := CheckAllReachableMarked(r.store, r.marker, graph.CtxR, vs[0].ID); len(bad) != 0 {
			t.Fatalf("seed %d: reachable unmarked %v", seed, bad)
		}
	}
}
