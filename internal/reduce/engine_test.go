package reduce

import (
	"testing"

	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
)

// erig is a full deterministic machine: store, scheduler, marker, mutator,
// engine, and builder.
type erig struct {
	t        *testing.T
	store    *graph.Store
	mach     *sched.Machine
	marker   *core.Marker
	mut      *core.Mutator
	engine   *Engine
	b        *graph.Builder
	counters *metrics.Counters
}

func newERig(t *testing.T, pes int, seed int64, speculative bool) *erig {
	t.Helper()
	return newERigConfig(t, pes, seed, Config{SpeculativeIf: speculative})
}

// newERigConfig is newERig with the engine's configuration; the rig sets its
// Counters.
func newERigConfig(t *testing.T, pes int, seed int64, cfg Config) *erig {
	t.Helper()
	store := graph.NewStore(graph.Config{Partitions: pes})
	counters := &metrics.Counters{}
	mach := sched.New(sched.Config{
		PEs:      pes,
		Mode:     sched.Deterministic,
		Seed:     seed,
		PartOf:   store.PartitionOf,
		Counters: counters,
	})
	marker := core.NewMarker(store, mach, counters)
	mut := core.NewMutator(store, marker, mach, counters)
	cfg.Counters = counters
	eng := New(store, mach, mut, cfg)
	mach.SetHandler(core.NewDispatcher(marker, eng))
	return &erig{
		t: t, store: store, mach: mach, marker: marker, mut: mut,
		engine: eng, b: graph.NewBuilder(store, 0), counters: counters,
	}
}

// eval demands root, runs to quiescence, and returns the value if any.
func (r *erig) eval(root *graph.Vertex) (Value, bool) {
	r.t.Helper()
	if err := r.b.Err(); err != nil {
		r.t.Fatal(err)
	}
	ch := r.engine.Demand(root.ID)
	if _, ok := r.mach.RunToQuiescence(2_000_000); !ok {
		r.t.Fatal("machine did not quiesce")
	}
	select {
	case v := <-ch:
		return v, true
	default:
		return Value{}, false
	}
}

// evalInt asserts the root evaluates to the given integer.
func (r *erig) evalInt(root *graph.Vertex, want int64) {
	r.t.Helper()
	v, ok := r.eval(root)
	if errs := r.engine.Errors(); len(errs) != 0 {
		r.t.Fatalf("runtime errors: %v", errs)
	}
	if !ok {
		r.t.Fatal("no value produced")
	}
	if v.Kind != graph.KindInt || v.Int != want {
		r.t.Fatalf("value = %v, want %d", v, want)
	}
}

func (r *erig) evalBool(root *graph.Vertex, want bool) {
	r.t.Helper()
	v, ok := r.eval(root)
	if !ok {
		r.t.Fatal("no value produced")
	}
	if v.Kind != graph.KindBool || v.Bool != want {
		r.t.Fatalf("value = %v, want %t", v, want)
	}
}

func TestArithmetic(t *testing.T) {
	tests := []struct {
		name  string
		build func(b *graph.Builder) *graph.Vertex
		want  int64
	}{
		{"add", func(b *graph.Builder) *graph.Vertex {
			return b.AppN(b.Prim(graph.PrimAdd), b.Int(2), b.Int(3))
		}, 5},
		{"nested", func(b *graph.Builder) *graph.Vertex {
			mul := b.AppN(b.Prim(graph.PrimMul), b.Int(2), b.Int(3))
			sub := b.AppN(b.Prim(graph.PrimSub), b.Int(10), b.Int(4))
			return b.AppN(b.Prim(graph.PrimAdd), mul, sub)
		}, 12},
		{"div", func(b *graph.Builder) *graph.Vertex {
			return b.AppN(b.Prim(graph.PrimDiv), b.Int(17), b.Int(5))
		}, 3},
		{"mod", func(b *graph.Builder) *graph.Vertex {
			return b.AppN(b.Prim(graph.PrimMod), b.Int(17), b.Int(5))
		}, 2},
		{"neg", func(b *graph.Builder) *graph.Vertex {
			return b.App(b.Prim(graph.PrimNeg), b.Int(9))
		}, -9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newERig(t, 2, 1, false)
			r.evalInt(tt.build(r.b), tt.want)
		})
	}
}

func TestComparisons(t *testing.T) {
	tests := []struct {
		p    graph.Prim
		x, y int64
		want bool
	}{
		{graph.PrimEq, 3, 3, true},
		{graph.PrimEq, 3, 4, false},
		{graph.PrimNe, 3, 4, true},
		{graph.PrimLt, 3, 4, true},
		{graph.PrimLe, 4, 4, true},
		{graph.PrimGt, 5, 4, true},
		{graph.PrimGe, 3, 4, false},
	}
	for _, tt := range tests {
		r := newERig(t, 1, 2, false)
		root := r.b.AppN(r.b.Prim(tt.p), r.b.Int(tt.x), r.b.Int(tt.y))
		r.evalBool(root, tt.want)
	}
}

func TestBooleanOps(t *testing.T) {
	r := newERig(t, 1, 3, false)
	root := r.b.AppN(r.b.Prim(graph.PrimAnd), r.b.Bool(true), r.b.Bool(false))
	r.evalBool(root, false)

	r2 := newERig(t, 1, 3, false)
	root2 := r2.b.AppN(r2.b.Prim(graph.PrimOr), r2.b.Bool(false), r2.b.Bool(true))
	r2.evalBool(root2, true)

	r3 := newERig(t, 1, 3, false)
	root3 := r3.b.App(r3.b.Prim(graph.PrimNot), r3.b.Bool(false))
	r3.evalBool(root3, true)
}

func TestDivisionByZero(t *testing.T) {
	r := newERig(t, 1, 4, false)
	root := r.b.AppN(r.b.Prim(graph.PrimDiv), r.b.Int(1), r.b.Int(0))
	_, ok := r.eval(root)
	if ok {
		t.Fatal("division by zero produced a value")
	}
	if errs := r.engine.Errors(); len(errs) == 0 {
		t.Fatal("expected a runtime error")
	}
}

func TestTypeError(t *testing.T) {
	r := newERig(t, 1, 5, false)
	root := r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.Bool(true), r.b.Int(1))
	if _, ok := r.eval(root); ok {
		t.Fatal("type error produced a value")
	}
	if errs := r.engine.Errors(); len(errs) == 0 {
		t.Fatal("expected a runtime error")
	}
}

func TestApplyNonFunction(t *testing.T) {
	r := newERig(t, 1, 6, false)
	root := r.b.App(r.b.Int(3), r.b.Int(4))
	if _, ok := r.eval(root); ok {
		t.Fatal("applying an int produced a value")
	}
	if errs := r.engine.Errors(); len(errs) == 0 {
		t.Fatal("expected a runtime error")
	}
}

func TestCombinators(t *testing.T) {
	tests := []struct {
		name  string
		build func(b *graph.Builder) *graph.Vertex
		want  int64
	}{
		{"I", func(b *graph.Builder) *graph.Vertex {
			return b.App(b.Comb(graph.CombI), b.Int(42))
		}, 42},
		{"K", func(b *graph.Builder) *graph.Vertex {
			return b.AppN(b.Comb(graph.CombK), b.Int(1), b.Int(2))
		}, 1},
		{"SKK=I", func(b *graph.Builder) *graph.Vertex {
			skk := b.AppN(b.Comb(graph.CombS), b.Comb(graph.CombK), b.Comb(graph.CombK))
			return b.App(skk, b.Int(7))
		}, 7},
		{"B", func(b *graph.Builder) *graph.Vertex {
			// B neg neg 5 → neg (neg 5) = 5
			return b.AppN(b.Comb(graph.CombB),
				b.Prim(graph.PrimNeg), b.Prim(graph.PrimNeg), b.Int(5))
		}, 5},
		{"C", func(b *graph.Builder) *graph.Vertex {
			// C sub 1 5 → (sub 5) 1 = 4
			return b.AppN(b.Comb(graph.CombC),
				b.Prim(graph.PrimSub), b.Int(1), b.Int(5))
		}, 4},
		{"S", func(b *graph.Builder) *graph.Vertex {
			// S add I 7 → add (I 7) (I 7)... S f g x = (f x)(g x):
			// S add neg 7 = (add 7) (neg 7) = 0
			return b.AppN(b.Comb(graph.CombS),
				b.Prim(graph.PrimAdd), b.Prim(graph.PrimNeg), b.Int(7))
		}, 0},
		{"S'", func(b *graph.Builder) *graph.Vertex {
			// S' add I I 7 → add (I 7) (I 7) = 14
			return b.AppN(b.Comb(graph.CombSP),
				b.Prim(graph.PrimAdd), b.Comb(graph.CombI), b.Comb(graph.CombI), b.Int(7))
		}, 14},
		{"B'", func(b *graph.Builder) *graph.Vertex {
			// B' add 3 neg 9 → add 3 (neg 9) = -6
			return b.AppN(b.Comb(graph.CombBP),
				b.Prim(graph.PrimAdd), b.Int(3), b.Prim(graph.PrimNeg), b.Int(9))
		}, -6},
		{"C'", func(b *graph.Builder) *graph.Vertex {
			// C' add neg 5 9 → add (neg 9) 5 = -4
			return b.AppN(b.Comb(graph.CombCP),
				b.Prim(graph.PrimAdd), b.Prim(graph.PrimNeg), b.Int(5), b.Int(9))
		}, -4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newERig(t, 2, 7, false)
			r.evalInt(tt.build(r.b), tt.want)
		})
	}
}

func TestYCombinator(t *testing.T) {
	// Y (K 42) → K 42 (Y (K 42)) → 42.
	r := newERig(t, 2, 8, false)
	root := r.b.App(r.b.Comb(graph.CombY), r.b.App(r.b.Comb(graph.CombK), r.b.Int(42)))
	r.evalInt(root, 42)
}

func TestIf(t *testing.T) {
	for _, spec := range []bool{false, true} {
		r := newERig(t, 2, 9, spec)
		root := r.b.AppN(r.b.Prim(graph.PrimIf), r.b.Bool(true), r.b.Int(1), r.b.Int(2))
		r.evalInt(root, 1)

		r2 := newERig(t, 2, 9, spec)
		root2 := r2.b.AppN(r2.b.Prim(graph.PrimIf), r2.b.Bool(false), r2.b.Int(1), r2.b.Int(2))
		r2.evalInt(root2, 2)
	}
}

func TestIfComputedPredicate(t *testing.T) {
	r := newERig(t, 2, 10, true)
	pred := r.b.AppN(r.b.Prim(graph.PrimLt), r.b.Int(3), r.b.Int(4))
	thenB := r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(6), r.b.Int(7))
	elseB := r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.Int(1), r.b.Int(1))
	root := r.b.AppN(r.b.Prim(graph.PrimIf), pred, thenB, elseB)
	r.evalInt(root, 42)
}

func TestLazinessConsWithBottom(t *testing.T) {
	// head (cons 1 ⊥) = 1: the pair's tail is never forced.
	r := newERig(t, 2, 11, false)
	pair := r.b.AppN(r.b.Prim(graph.PrimCons), r.b.Int(1), r.b.Prim(graph.PrimBottom))
	root := r.b.App(r.b.Prim(graph.PrimHead), pair)
	r.evalInt(root, 1)
}

func TestListOps(t *testing.T) {
	r := newERig(t, 2, 12, false)
	lst := r.b.List(r.b.Int(1), r.b.Int(2), r.b.Int(3))
	// head (tail lst) = 2
	root := r.b.App(r.b.Prim(graph.PrimHead), r.b.App(r.b.Prim(graph.PrimTail), lst))
	r.evalInt(root, 2)

	r2 := newERig(t, 2, 12, false)
	root2 := r2.b.App(r2.b.Prim(graph.PrimIsNil), r2.b.Nil())
	r2.evalBool(root2, true)

	r3 := newERig(t, 2, 12, false)
	lst3 := r3.b.List(r3.b.Int(1))
	root3 := r3.b.App(r3.b.Prim(graph.PrimIsPair), lst3)
	r3.evalBool(root3, true)
}

func TestSeq(t *testing.T) {
	r := newERig(t, 1, 13, false)
	root := r.b.AppN(r.b.Prim(graph.PrimSeq),
		r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.Int(1), r.b.Int(1)), r.b.Int(9))
	r.evalInt(root, 9)
}

func TestSpecReturnsSecond(t *testing.T) {
	r := newERig(t, 2, 14, false)
	work := r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(100), r.b.Int(100))
	root := r.b.AppN(r.b.Prim(graph.PrimSpec), work, r.b.Int(5))
	r.evalInt(root, 5)
}

func TestPar(t *testing.T) {
	r := newERig(t, 2, 15, false)
	a := r.b.AppN(r.b.Prim(graph.PrimAdd), r.b.Int(1), r.b.Int(2))
	bb := r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(3), r.b.Int(4))
	root := r.b.AppN(r.b.Prim(graph.PrimPar), a, bb)
	r.evalInt(root, 12)
}

func TestPartialApplicationIsWHNF(t *testing.T) {
	r := newERig(t, 1, 16, false)
	root := r.b.App(r.b.Prim(graph.PrimAdd), r.b.Int(1))
	v, ok := r.eval(root)
	if !ok {
		t.Fatal("no value for partial application")
	}
	if v.Kind != graph.KindApply {
		t.Fatalf("value kind = %v, want apply (WHNF partial application)", v.Kind)
	}
	// And it can later be saturated.
	r2 := newERig(t, 1, 16, false)
	plus1 := r2.b.App(r2.b.Prim(graph.PrimAdd), r2.b.Int(1))
	root2 := r2.b.App(plus1, r2.b.Int(41))
	r2.evalInt(root2, 42)
}

func TestSharingEvaluatedOnce(t *testing.T) {
	// (+ s s) with s = (* 3 4): the shared redex s contracts exactly once.
	r := newERig(t, 2, 17, false)
	s := r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(3), r.b.Int(4))
	root := r.b.AppN(r.b.Prim(graph.PrimAdd), s, s)
	r.evalInt(root, 24)

	// s flattens once and relabels once; a non-shared evaluation would
	// double that. Count: root flatten + root relabel + s flatten + s
	// relabel = 4 rewrites.
	if got := r.counters.Rewrites.Load(); got != 4 {
		t.Fatalf("rewrites = %d, want 4 (sharing must evaluate s once)", got)
	}
}

func TestDeadlockFig31(t *testing.T) {
	// Figure 3-1: x = x + 1. The demand quiesces without a value; the
	// collector (M_T before M_R) reports the knot as deadlocked.
	r := newERig(t, 2, 18, false)
	hole := r.b.Hole()
	expr := r.b.AppN(r.b.Prim(graph.PrimAdd), hole, r.b.Int(1))
	r.b.Knot(hole, expr) // x = x+1

	val, ok := r.eval(expr)
	if ok {
		t.Fatalf("deadlocked expression produced %v", val)
	}

	col := core.NewCollector(r.store, r.marker, r.mach, r.counters, core.CollectorConfig{
		Root:    expr.ID,
		MTEvery: 1,
	})
	rep := col.RunCycle()
	if !rep.MTRan || !rep.Completed {
		t.Fatalf("cycle: %+v", rep)
	}
	found := false
	for _, id := range rep.Deadlocked {
		if id == expr.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("x=x+1 knot not reported deadlocked; got %v", rep.Deadlocked)
	}
}

func TestIndirectionSelfLoopDeadlocks(t *testing.T) {
	// letrec x = x: an Ind self-loop must quiesce, not spin.
	r := newERig(t, 1, 19, false)
	hole := r.b.Hole()
	r.b.Knot(hole, hole)
	if _, ok := r.eval(hole); ok {
		t.Fatal("x = x produced a value")
	}
}

func TestDeepSpine(t *testing.T) {
	// K applied through a long I chain: I (I (I K)) 1 2 = 1.
	r := newERig(t, 2, 20, false)
	k := r.b.Comb(graph.CombK)
	f := r.b.App(r.b.Comb(graph.CombI), k)
	f = r.b.App(r.b.Comb(graph.CombI), f)
	f = r.b.App(r.b.Comb(graph.CombI), f)
	root := r.b.AppN(f, r.b.Int(1), r.b.Int(2))
	r.evalInt(root, 1)
}

func TestArithTreeManyPEs(t *testing.T) {
	// A balanced (+) tree of depth 6 over ones: value 64, its nodes built
	// round-robin on 8 PEs.
	r := newERig(t, 8, 21, false)
	nodes := 0
	var buildTree func(d int) *graph.Vertex
	buildTree = func(d int) *graph.Vertex {
		b := graph.NewBuilder(r.store, nodes%8)
		nodes++
		if d == 0 {
			return b.Int(1)
		}
		return b.AppN(b.Prim(graph.PrimAdd), buildTree(d-1), buildTree(d-1))
	}
	r.evalInt(buildTree(6), 64)
	if r.counters.RemoteMessages.Load() == 0 {
		t.Fatal("expected remote messages across 8 PEs")
	}
}

func TestValueOfAndConsParts(t *testing.T) {
	r := newERig(t, 1, 22, false)
	lst := r.b.Cons(r.b.Int(7), r.b.Nil())
	root := r.b.App(r.b.Comb(graph.CombI), lst)
	v, ok := r.eval(root)
	if !ok || v.Kind != graph.KindCons {
		t.Fatalf("value = %v, ok=%v", v, ok)
	}
	h, tl, ok := r.engine.ConsParts(root.ID)
	if !ok {
		t.Fatal("ConsParts failed")
	}
	if hv := r.engine.ValueOf(h); hv.Kind != graph.KindInt || hv.Int != 7 {
		t.Fatalf("head = %v", hv)
	}
	if tv := r.engine.ValueOf(tl); tv.Kind != graph.KindNil {
		t.Fatalf("tail = %v", tv)
	}
}

func TestEvaluationWithConcurrentGC(t *testing.T) {
	// Run GC cycles interleaved with reduction in deterministic mode: the
	// result must be unaffected and marking invariants must hold.
	for seed := int64(0); seed < 10; seed++ {
		r := newERig(t, 4, seed, true)
		// (if (< 3 4) (* 6 7) ⊥) + (K 8 ⊥)
		pred := r.b.AppN(r.b.Prim(graph.PrimLt), r.b.Int(3), r.b.Int(4))
		iff := r.b.AppN(r.b.Prim(graph.PrimIf), pred,
			r.b.AppN(r.b.Prim(graph.PrimMul), r.b.Int(6), r.b.Int(7)),
			r.b.Prim(graph.PrimBottom))
		k8 := r.b.AppN(r.b.Comb(graph.CombK), r.b.Int(8), r.b.Prim(graph.PrimBottom))
		root := r.b.AppN(r.b.Prim(graph.PrimAdd), iff, k8)
		if err := r.b.Err(); err != nil {
			t.Fatal(err)
		}

		col := core.NewCollector(r.store, r.marker, r.mach, r.counters, core.CollectorConfig{
			Root:    root.ID,
			MTEvery: 2,
		})
		ch := r.engine.Demand(root.ID)
		// Interleave: run a few reduction steps, then a whole GC cycle.
		for i := 0; i < 50; i++ {
			for j := 0; j < 5; j++ {
				if !r.mach.Step() {
					break
				}
			}
			col.RunCycle()
		}
		r.mach.RunToQuiescence(2_000_000)
		select {
		case v := <-ch:
			if v.Kind != graph.KindInt || v.Int != 50 {
				t.Fatalf("seed %d: value = %v, want 50", seed, v)
			}
		default:
			t.Fatalf("seed %d: no value (errors: %v)", seed, r.engine.Errors())
		}
	}
}
