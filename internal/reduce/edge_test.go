package reduce

import (
	"testing"
	"time"

	"dgr/internal/core"
	"dgr/internal/graph"
)

func TestHeadOfNonPairFails(t *testing.T) {
	r := newERig(t, 1, 30, false)
	root := r.b.App(r.b.Prim(graph.PrimHead), r.b.Int(5))
	if _, ok := r.eval(root); ok {
		t.Fatal("head of int produced a value")
	}
	if len(r.engine.Errors()) == 0 {
		t.Fatal("expected a runtime error")
	}
}

func TestIsNilOfInt(t *testing.T) {
	r := newERig(t, 1, 31, false)
	root := r.b.App(r.b.Prim(graph.PrimIsNil), r.b.Int(5))
	r.evalBool(root, false) // isnil is a total predicate on WHNF values
}

func TestNotOfIntFails(t *testing.T) {
	r := newERig(t, 1, 32, false)
	root := r.b.App(r.b.Prim(graph.PrimNot), r.b.Int(5))
	if _, ok := r.eval(root); ok {
		t.Fatal("not of int produced a value")
	}
}

func TestOverApplicationFails(t *testing.T) {
	// (neg 1) 2: applying an integer result.
	r := newERig(t, 1, 33, false)
	root := r.b.App(r.b.App(r.b.Prim(graph.PrimNeg), r.b.Int(1)), r.b.Int(2))
	if _, ok := r.eval(root); ok {
		t.Fatal("over-application produced a value")
	}
	if len(r.engine.Errors()) == 0 {
		t.Fatal("expected a runtime error")
	}
}

func TestValueOfDangling(t *testing.T) {
	r := newERig(t, 1, 34, false)
	v := r.engine.ValueOf(graph.VertexID(9999))
	if v.Kind != graph.KindHole {
		t.Fatalf("dangling ValueOf = %v", v)
	}
}

func TestConsPartsOnNonCons(t *testing.T) {
	r := newERig(t, 1, 35, false)
	i := r.b.Int(1)
	if _, _, ok := r.engine.ConsParts(i.ID); ok {
		t.Fatal("ConsParts of int succeeded")
	}
}

func TestIndChainResolution(t *testing.T) {
	// Long but finite indirection chains resolve.
	r := newERig(t, 1, 36, false)
	target := r.b.Int(7)
	cur := target
	for i := 0; i < 50; i++ {
		cur = r.b.Ind(cur)
	}
	root := r.b.App(r.b.Prim(graph.PrimNeg), cur)
	r.evalInt(root, -7)
}

func TestBottomProbeDirect(t *testing.T) {
	// The probe machinery at the engine level: resolve via the deadlocked
	// set (the collector's path) without a full dgr machine.
	r := newERig(t, 2, 37, false)
	knotHole := r.b.Hole()
	knot := r.b.AppN(r.b.Prim(graph.PrimAdd), knotHole, r.b.Int(1))
	r.b.Knot(knotHole, knot)
	probe := r.b.App(r.b.Prim(graph.PrimIsBotOp), knot)
	root := r.b.AppN(r.b.Prim(graph.PrimIf), probe, r.b.Int(-1), knot)

	ch := r.engine.Demand(root.ID)
	r.mach.RunToQuiescence(1_000_000)
	select {
	case <-ch:
		t.Fatal("value before probe resolution")
	default:
	}

	col := core.NewCollector(r.marker, core.CollectorConfig{
		MTEvery: 1,
		OnDeadlock: func(ids []graph.VertexID) {
			// Resolving a probe relabels it, a rewrite its execution
			// publishes before ResolveBottomProbes returns.
			before := r.counters.Rewrites.Load()
			if n := len(r.engine.ResolveBottomProbes(ids)); r.counters.Rewrites.Load()-before != int64(n) {
				t.Errorf("%d probes resolved, %d rewrites counted", n, r.counters.Rewrites.Load()-before)
			}
		},
	})
	col.SetRoot(root.ID)
	// Two cycles: the first M_T pass nominates the knot, the second confirms
	// it (two-phase verdict) and fires OnDeadlock.
	col.RunCycle()
	col.RunCycle()
	r.mach.RunToQuiescence(1_000_000)
	select {
	case v := <-ch:
		if v.Kind != graph.KindInt || v.Int != -1 {
			t.Fatalf("recovered = %v, want -1", v)
		}
	default:
		t.Fatalf("probe did not resolve; deadlocked=%v", col.Deadlocked())
	}
}

func TestDuplicateDemandsHarmless(t *testing.T) {
	// Several root demands on the same vertex all get answered.
	r := newERig(t, 2, 38, false)
	root := r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(6), r.b.Int(7))
	ch1 := r.engine.Demand(root.ID)
	ch2 := r.engine.Demand(root.ID)
	r.mach.RunToQuiescence(1_000_000)
	v1, v2 := <-ch1, <-ch2
	if v1.Int != 42 || v2.Int != 42 {
		t.Fatalf("v1=%v v2=%v", v1, v2)
	}
}

func TestDemandOnFreedVertexDropped(t *testing.T) {
	r := newERig(t, 1, 39, false)
	v := r.b.Int(3)
	r.store.Release(v)
	ch := r.engine.Demand(v.ID)
	r.mach.RunToQuiescence(1000)
	select {
	case got := <-ch:
		t.Fatalf("freed vertex produced %v", got)
	default: // correctly dropped
	}
}

// TestManyAwaitedRoots: more roots awaited at once than the lock-free root
// check holds in its slots, one of them twice and one already a value, all
// get their values; once they are delivered no root is published, so the
// check answers every vertex without the waiter map.
func TestManyAwaitedRoots(t *testing.T) {
	r := newERig(t, 2, 40, false)
	const n = 3 * rootSlots
	var roots [n]*graph.Vertex
	var chans []<-chan Value
	var want []int64
	for i := range roots {
		if i == 0 {
			roots[i] = r.b.Int(5)
		} else {
			roots[i] = r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(int64(i)), r.b.Int(7))
		}
		chans = append(chans, r.engine.Demand(roots[i].ID))
		want = append(want, int64(7*i))
	}
	want[0] = 5
	chans = append(chans, r.engine.Demand(roots[n-1].ID))
	want = append(want, 7*(n-1))
	if got := r.engine.spilled.Load(); got != n-rootSlots {
		t.Fatalf("%d roots spilled, want %d", got, n-rootSlots)
	}
	if _, ok := r.mach.RunToQuiescence(1_000_000); !ok {
		t.Fatal("machine did not quiesce")
	}
	for i, ch := range chans {
		select {
		case v := <-ch:
			if v.Int != want[i] {
				t.Errorf("root %d = %v, want %d", i, v, want[i])
			}
		default:
			t.Errorf("root %d: no value", i)
		}
	}
	if len(r.engine.rootWaiters) != 0 || r.engine.spilled.Load() != 0 {
		t.Fatalf("after delivery: %d roots awaited, %d spilled", len(r.engine.rootWaiters), r.engine.spilled.Load())
	}
	for _, v := range roots {
		if r.engine.awaited(v.ID) {
			t.Fatalf("v%d is still published as awaited", v.ID)
		}
	}
}

// TestWithdrawnRootIsNotAwaited: an evaluation that ends without its value
// withdraws its waiter; the root is then neither in the waiter map nor
// published, and the value, if it comes, goes to no one.
func TestWithdrawnRootIsNotAwaited(t *testing.T) {
	r := newERig(t, 1, 41, false)
	root := r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.Int(1), r.b.Int(2))
	kept := r.engine.Demand(root.ID)
	gone := r.engine.Demand(root.ID)
	r.engine.Withdraw(root.ID, gone)
	if !r.engine.awaited(root.ID) || len(r.engine.rootWaiters[root.ID]) != 1 {
		t.Fatalf("one waiter left: awaited %v, %d waiters", r.engine.awaited(root.ID), len(r.engine.rootWaiters[root.ID]))
	}
	r.engine.Withdraw(root.ID, kept)
	if r.engine.awaited(root.ID) || len(r.engine.rootWaiters) != 0 {
		t.Fatalf("none left: awaited %v, %d roots in the map", r.engine.awaited(root.ID), len(r.engine.rootWaiters))
	}
	r.mach.RunToQuiescence(1000)
	if len(kept) != 0 || len(gone) != 0 {
		t.Fatal("a withdrawn waiter got a value")
	}
}

// TestRootCheckTakesNoLock: while a root is awaited, completing a vertex no
// root waiter awaits, and asking its demand kind, take no lock (they finish
// while the test holds Engine.mu), touch no map and allocate nothing.
func TestRootCheckTakesNoLock(t *testing.T) {
	r := newERig(t, 1, 42, false)
	root := r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.Int(1), r.b.Int(2))
	other := r.b.Int(3)
	r.engine.Demand(root.ID)
	done := make(chan graph.ReqKind)
	r.engine.mu.Lock()
	go func() {
		r.engine.notifyRoot(other)
		done <- r.engine.demandKind(other)
	}()
	select {
	case kind := <-done:
		if kind != graph.ReqEager {
			t.Errorf("demandKind of an unawaited vertex = %v, want eager", kind)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the root check of an unawaited vertex waited on Engine.mu")
	}
	r.engine.mu.Unlock()
	if n := testing.AllocsPerRun(100, func() { r.engine.notifyRoot(other) }); n != 0 {
		t.Fatalf("notifyRoot of an unawaited vertex: %v allocations", n)
	}
}
