package reduce

import (
	"testing"

	"dgr/internal/graph"
)

// TestResolveWHNFDecidesUnderOneHold plays, deterministically, the
// interleaving that made a parallel machine report "operand vN has kind ind,
// want int" on evaluations that were right: between resolveWHNF seeing that
// an operand is not an indirection and its caller acting on the answer,
// another PE contracts the operand into an indirection and steps that into
// WHNF. The answer must be the one the first look justified — not yet a
// value, demand it — never "the indirection is the value".
func TestResolveWHNFDecidesUnderOneHold(t *testing.T) {
	r := newERig(t, 1, 1, false)
	operand := r.b.App(r.b.Comb(graph.CombI), r.b.Int(5)) // one step from Ind -> 5
	root := r.b.PrimApp(graph.PrimAdd, operand, r.b.Int(3))

	fired := false
	r.engine.afterResolve = func(v *graph.Vertex) {
		if fired || v != operand {
			return
		}
		fired = true
		// The other PE: I 5 contracts to an indirection, whose own step finds
		// the 5 and marks the indirection WHNF.
		other := &execution{Engine: r.engine, pe: 1, part: r.store.PartitionOf(operand.ID)}
		for i := 0; i < 4; i++ {
			other.step(operand.ID)
		}
		operand.Lock()
		kind, whnf := operand.Kind, operand.WHNF
		operand.Unlock()
		if kind != graph.KindInd || !whnf {
			t.Fatalf("operand is %v (whnf %t) after the interleaved steps, want a WHNF indirection", kind, whnf)
		}
	}
	r.evalInt(root, 8) // also fails on any recorded runtime error
	if !fired {
		t.Fatal("resolveWHNF never returned the operand: the interleaving was not played")
	}
}

// TestFinishedPrimStepActsOnNothing plays, deterministically, the
// interleaving that left parallel interp tak with "operand vN has kind free,
// want int" on evaluations that were right: two steps of one primitive
// application both resolve its operands, the other PE's finishes it first,
// and the operands, no longer held by anything, are swept before the first
// step reads them. The first step must record no error and rewrite nothing.
func TestFinishedPrimStepActsOnNothing(t *testing.T) {
	r := newERig(t, 2, 1, false)
	a, b := r.b.Int(2), r.b.Int(3)
	root := r.b.PrimApp(graph.PrimAdd, a, b)

	fired := false
	r.engine.afterResolve = func(v *graph.Vertex) {
		if fired || v != b {
			return
		}
		fired = true
		// The other PE's step of the sum finishes it; its operands become
		// garbage, and the sweep frees one.
		other := &execution{Engine: r.engine, pe: 1, part: r.store.PartitionOf(root.ID)}
		other.step(root.ID)
		if k := kindOf(root); k != graph.KindInt {
			t.Fatalf("the other step left the sum %v, want its value", k)
		}
		r.store.Release(a)
	}
	r.evalInt(root, 5) // also fails on any recorded runtime error
	if !fired {
		t.Fatal("resolveWHNF never returned the second operand: the interleaving was not played")
	}
}

func kindOf(v *graph.Vertex) graph.Kind {
	v.Lock()
	defer v.Unlock()
	return v.Kind
}
