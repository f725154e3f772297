package lang

import (
	"dgr/internal/graph"
)

// Strictness analysis over a lifted program: which parameters does each
// supercombinator certainly force on every path to WHNF of its body?
// The engine uses the result to demand strict operands before executing a
// compiled body, which in turn lets body execution constant-fold
// arithmetic, comparisons, and branch selection over the (now known)
// operand values.
//
// The analysis is the standard Mycroft iteration adapted to the lifted
// form: start from the bottom assumption (every supercombinator strict in
// every parameter — the ⊥ function is strict), recompute each body's
// needed-set under the current assumptions, and repeat until the masks
// stop changing. The chain is decreasing, so it terminates; the fixpoint
// conflates all bottoms (a deadlocked and a diverging operand are both ⊥),
// which is exactly the equivalence the machine's semantics grants.

// strictMasks computes the per-parameter strictness mask of every
// supercombinator in the lifted program.
func strictMasks(sc *SCProg) map[string][]bool {
	assume := make(map[string][]bool, len(sc.Supers))
	for _, s := range sc.Supers {
		mask := make([]bool, s.Arity())
		for i := range mask {
			mask[i] = true
		}
		assume[s.Name] = mask
	}
	for round := 0; round < 20; round++ {
		changed := false
		for _, s := range sc.Supers {
			params := make(map[string]int, s.Arity())
			for i, p := range s.Params {
				params[p] = i
			}
			need := neededParams(s.Body, params, map[string]bool{}, assume)
			mask := assume[s.Name]
			for i := range mask {
				if mask[i] && !need[i] {
					mask[i] = false
					changed = true
				}
			}
		}
		if !changed {
			return assume
		}
	}
	// Safety valve: no fixpoint within the bound — claim nothing.
	for name, mask := range assume {
		for i := range mask {
			mask[i] = false
		}
		assume[name] = mask
	}
	return assume
}

// neededParams returns the parameter indices that WHNF of e certainly
// forces. params maps in-scope parameter names to indices; shadow holds
// names rebound by residual lets (treated as opaque — forcing a shared
// knot contributes nothing claimable about parameters).
func neededParams(e Expr, params map[string]int, shadow map[string]bool, assume map[string][]bool) map[int]bool {
	out := map[int]bool{}
	switch x := e.(type) {
	case Var:
		if shadow[x.Name] {
			return out
		}
		if i, ok := params[x.Name]; ok {
			out[i] = true
		}
		return out
	case IntLit, BoolLit, NilLit, Lam:
		return out
	case If:
		out = neededParams(x.Cond, params, shadow, assume)
		t := neededParams(x.Then, params, shadow, assume)
		el := neededParams(x.Else, params, shadow, assume)
		for i := range t {
			if el[i] {
				out[i] = true
			}
		}
		return out
	case Let:
		inner := copyBound(shadow)
		for _, b := range x.Binds {
			inner[b.Name] = true
		}
		return neededParams(x.Body, params, inner, assume)
	case App:
		head, args := spine(x)
		// strict reports whether the head, applied to at least arity
		// arguments, certainly forces argument i.
		var arity int
		var strict func(i int) bool
		switch h := head.(type) {
		case Var:
			if shadow[h.Name] {
				return out
			}
			if i, ok := params[h.Name]; ok {
				// Calling an unknown function forces the function itself,
				// nothing claimable about its arguments.
				out[i] = true
				return out
			}
			if mask, ok := assume[h.Name]; ok {
				arity, strict = len(mask), func(i int) bool { return mask[i] }
			} else if k, val, ok := Builtin(h.Name); ok && k == graph.KindPrim {
				arity, strict = graph.Prim(val).Arity(), graph.Prim(val).Needs
			}
			if len(args) < arity {
				return out // partial application: already WHNF
			}
		default:
			// An If/Let in head position: the head is forced.
			out = neededParams(head, params, shadow, assume)
		}
		for i := 0; i < arity; i++ {
			if !strict(i) {
				continue
			}
			for p := range neededParams(args[i], params, shadow, assume) {
				out[p] = true
			}
		}
		return out
	default:
		return out
	}
}
