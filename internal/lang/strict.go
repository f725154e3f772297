package lang

import (
	"slices"

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
//
// Sets are bitsets over a super's parameters: one word per 64 of them,
// taken from a stack that lives for one analysis, so a round allocates
// nothing.

// bitset is a set of parameter indices.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (i & 63) }

func words(n int) int { return (n + 63) >> 6 }

// strictness is the state of one analysis.
type strictness struct {
	sc     *SCProg
	assume []bitset // per super: the parameters it is assumed strict in
	params []string // the parameters of the super being analysed
	w      int      // words in one of its needed-sets
	shadow []string // names rebound by the residual lets in scope
	sets   []uint64 // stack of needed-sets
	spines []Expr   // stack of spine arguments
}

// strictMasks computes the per-parameter strictness mask of every
// supercombinator in the lifted program, indexed as sc.Supers.
func strictMasks(sc *SCProg) [][]bool {
	st := &strictness{
		sc:     sc,
		assume: make([]bitset, len(sc.Supers)),
		sets:   make([]uint64, 0, stackRoom),
		spines: make([]Expr, 0, stackRoom),
	}
	total, nwords := 0, 0
	for _, s := range sc.Supers {
		total += s.Arity()
		nwords += words(s.Arity())
	}
	all := make(bitset, nwords)
	for i, s := range sc.Supers {
		n := s.Arity()
		st.assume[i], all = all[:words(n):words(n)], all[words(n):]
		for p := 0; p < n; p++ {
			st.assume[i].set(p)
		}
	}
	// A changing round clears at least one of the total assumed bits, so
	// the last round comes at most total+1 rounds in: the bound is the
	// height of the decreasing chain, and the loop always ends on a fixpoint.
	fixed := false
	for round := 0; round <= total && !fixed; round++ {
		fixed = true
		for i, s := range sc.Supers {
			st.params, st.w = s.Params, words(s.Arity())
			need := st.take()
			st.needed(s.Body, need)
			for k, word := range st.assume[i] {
				if word&^need[k] != 0 {
					st.assume[i][k] = word & need[k]
					fixed = false
				}
			}
			st.drop(need)
		}
	}
	masks := make([][]bool, len(sc.Supers))
	flat := make([]bool, total)
	for i, s := range sc.Supers {
		n := s.Arity()
		masks[i], flat = flat[:n:n], flat[n:]
		for p := 0; p < n; p++ {
			masks[i][p] = fixed && st.assume[i].has(p)
		}
	}
	return masks
}

// take pushes a cleared needed-set for the current super.
func (st *strictness) take() bitset {
	n := len(st.sets)
	st.sets = slices.Grow(st.sets, st.w)[:n+st.w]
	s := st.sets[n : n+st.w : n+st.w]
	clear(s)
	return s
}

// drop pops s, the set take returned last.
func (st *strictness) drop(s bitset) { st.sets = st.sets[:len(st.sets)-len(s)] }

// param returns the index of name among the current super's parameters.
func (st *strictness) param(name string) (int, bool) {
	for i := len(st.params) - 1; i >= 0; i-- {
		if st.params[i] == name {
			return i, true
		}
	}
	return 0, false
}

func (st *strictness) shadowed(name string) bool {
	for _, s := range st.shadow {
		if s == name {
			return true
		}
	}
	return false
}

// needed adds to out the parameter indices that WHNF of e certainly
// forces. A name rebound by a residual let is opaque: forcing a shared knot
// contributes nothing claimable about parameters.
func (st *strictness) needed(e Expr, out bitset) {
	switch x := e.(type) {
	case *Var:
		if st.shadowed(x.Name) {
			return
		}
		if i, ok := st.param(x.Name); ok {
			out.set(i)
		}
	case *If:
		st.needed(x.Cond, out)
		t, el := st.take(), st.take()
		st.needed(x.Then, t)
		st.needed(x.Else, el)
		for k := range out {
			out[k] |= t[k] & el[k]
		}
		st.drop(el)
		st.drop(t)
	case *Let:
		mark := len(st.shadow)
		for _, b := range x.Binds {
			st.shadow = append(st.shadow, b.Name)
		}
		st.needed(x.Body, out)
		st.shadow = st.shadow[:mark]
	case *App:
		mark := len(st.spines)
		var head Expr
		head, st.spines = spine(e, st.spines)
		st.app(head, st.spines[mark:], out)
		st.spines = st.spines[:mark]
	}
}

// app is needed for a spine: head applied to args.
func (st *strictness) app(head Expr, args []Expr, out bitset) {
	// The head, applied to at least arity arguments, certainly forces
	// argument i if it is a super assumed strict in i (mask) or a primitive
	// that needs i.
	var arity int
	var mask bitset
	var prim graph.Prim
	switch h := head.(type) {
	case *Var:
		if st.shadowed(h.Name) {
			return
		}
		if i, ok := st.param(h.Name); ok {
			// Calling an unknown function forces the function itself,
			// nothing claimable about its arguments.
			out.set(i)
			return
		}
		if i, ok := st.sc.Index[h.Name]; ok {
			arity, mask = st.sc.Supers[i].Arity(), st.assume[i]
		} else if k, val, ok := Builtin(h.Name); ok && k == graph.KindPrim {
			prim = graph.Prim(val)
			arity = prim.Arity()
		}
		if len(args) < arity {
			return // partial application: already WHNF
		}
	default:
		// An If/Let in head position: the head is forced.
		st.needed(head, out)
	}
	for i := 0; i < arity; i++ {
		if mask != nil && mask.has(i) || mask == nil && prim.Needs(i) {
			st.needed(args[i], out)
		}
	}
}
