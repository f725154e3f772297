package reduce

import (
	"testing"

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

	col := core.NewCollector(r.store, r.marker, r.mach, r.counters, core.CollectorConfig{
		Root:    root.ID,
		MTEvery: 1,
		OnDeadlock: func(ids []graph.VertexID) {
			r.engine.ResolveBottomProbes(ids)
		},
	})
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
