package reduce

import (
	"testing"

	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/lang"
)

// TestSecondBodyRunLeavesTheRedexAlone plays, deterministically, the
// interleaving that made a parallel compiled machine spin on tak until its
// budget ran out: two steps of one saturated redex both find its strict
// operand evaluated and run the body. Here the other PE's step runs first
// and takes the redex to its value: its body makes it an indirection to
// h 3, which it evaluates, and it flags the redex WHNF. The first step's
// body then commits on a vertex that is no longer its redex; it must leave
// it alone. Were it to commit, the redex would be an indirection to a fresh
// h 3 under the WHNF flag: nobody evaluates that h 3, so the sum would wait
// on it and the machine quiesce with no value (in tak, an operand in that
// state had its demand answered at once and was demanded again, for ever).
func TestSecondBodyRunLeavesTheRedexAlone(t *testing.T) {
	prog := gm.NewProgram()
	r := newERigConfig(t, 2, 1, Config{Prog: prog})
	root, err := lang.CompileSupers(r.store, prog, "let g x = if x > 0 then h x else 0; h y = y * 2 in g 3 + 1")
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	r.engine.afterResolve = func(w *graph.Vertex) {
		if fired || w.Kind != graph.KindInt || w.Val != 3 {
			return
		}
		fired = true
		// The redex g 3 is the sum's first operand.
		root.Lock()
		redex := root.Args()[0]
		root.Unlock()
		other := &execution{Engine: r.engine, pe: 1, part: r.store.PartitionOf(redex)}
		if !other.step(redex) {
			t.Fatal("the other step did not run the body")
		}
		v := r.store.Vertex(redex)
		v.Lock()
		kind, args := v.Kind, v.Args()
		v.Unlock()
		if kind != graph.KindInd {
			t.Fatalf("the other step's body made the redex %v, want an indirection to h 3", kind)
		}
		other.step(args[0]) // h 3 → 6
		other.step(redex)   // the indirection finds 6: WHNF
		if !flagged(v) {
			t.Fatal("the other step did not take the redex to its value")
		}
	}
	r.evalInt(root, 7)
	if !fired {
		t.Fatal("resolveWHNF never returned the operand 3: the interleaving was not played")
	}
}

// TestSecondContractionLeavesTheRedexAlone is the interpreter's case of the
// same interleaving: two steps of S K K 5 both collect its spine, and the
// other PE's step contracts it and takes it on to its value, an indirection
// to 5. The first step's S contraction must then leave it alone, not make
// it an application again under the WHNF flag.
func TestSecondContractionLeavesTheRedexAlone(t *testing.T) {
	r := newERig(t, 2, 1, false)
	s := r.b.Comb(graph.CombS)
	root := r.b.AppN(s, r.b.Comb(graph.CombK), r.b.Comb(graph.CombK), r.b.Int(5))
	fired := false
	r.engine.afterResolve = func(w *graph.Vertex) {
		if fired || w != s {
			return
		}
		fired = true
		other := &execution{Engine: r.engine, pe: 1, part: r.store.PartitionOf(root.ID)}
		for other.step(root.ID) {
		}
		if !flagged(root) {
			t.Fatal("the other step did not take the redex to its value")
		}
	}
	r.evalInt(root, 5)
	if !fired {
		t.Fatal("resolveWHNF never returned S: the interleaving was not played")
	}
	if k := kindOf(root); k != graph.KindInd {
		t.Fatalf("the redex is %v after both steps, want the other step's indirection to 5", k)
	}
}
