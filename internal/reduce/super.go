package reduce

import (
	"dgr/internal/gm"
	"dgr/internal/graph"
)

// Compiled supercombinator execution. One saturated redex runs its body's
// whole instruction sequence as a stack machine, allocating the fresh
// subgraph up front and splicing every edge — including the root update —
// inside a single cooperating Rewrite, so the marking invariants see one
// atomic contraction exactly as they do for an interpreted combinator
// step.
//
// Execution folds over known values: strict operands arrive in WHNF
// (applySaturation forces them first), literals are known by construction,
// and any primitive whose operands are all known computes immediately —
// pushing a value instead of building a primapp vertex. Branch selection
// folds the same way, and a literal never materializes a vertex at all
// unless an unfoldable consumer needs a real vertex ID. Folding and stepping
// a value primitive call the same rule (graph.Prim.Apply); a fold the rule
// refuses — division by zero, for instance — builds the primapp, which
// reproduces the runtime error path.

// slot is one stack entry: a vertex ID, a known literal value, or both.
// id == NilVertex means the literal has not been materialized.
type slot struct {
	id    graph.VertexID
	known bool
	kind  graph.Kind // valid when known: KindInt, KindBool, or KindNil
	val   int64
}

// wire is one planned labeling: vertex w becomes (kind, val, args).
type wire struct {
	w    *graph.Vertex
	kind graph.Kind
	val  int64
	args []graph.VertexID
}

// superExec is the per-invocation machine state. Its slices are scratch:
// nothing in them outlives the invocation (Rewrite copies every wire's args
// into the vertex), so a PE's invocations reuse them (Engine.superScratch)
// and a warm engine runs a body without asking the allocator for any. allocs
// counts the vertices the invocation took from F, which endSuper hands back
// to the execution's tally.
type superExec struct {
	e       *Engine
	v       *graph.Vertex
	sup     *gm.Super
	part    int
	stack   []slot
	opSlots []slot
	locals  []*graph.Vertex
	fresh   []*graph.Vertex
	wires   []wire
	// ids is the arena the wires' args are cut from. When it grows, wires
	// already planned keep the old backing array, which nothing rewrites.
	ids    []graph.VertexID
	bad    bool
	allocs int64
}

// beginSuper readies the executing PE's body state (made at its first body)
// for one invocation on the redex v; endSuper takes its allocation count.
func (e *execution) beginSuper(v *graph.Vertex, sup *gm.Super) *superExec {
	x := e.superScratch[e.pe]
	if x == nil {
		x = new(superExec)
		e.superScratch[e.pe] = x
	}
	*x = superExec{
		e:       e.Engine,
		v:       v,
		sup:     sup,
		part:    int(v.Part),
		stack:   x.stack[:0],
		opSlots: x.opSlots[:0],
		locals:  x.locals[:0],
		fresh:   x.fresh[:0],
		wires:   x.wires[:0],
		ids:     x.ids[:0],
	}
	for i := 0; i < sup.NLocals; i++ {
		x.locals = append(x.locals, nil)
	}
	return x
}

func (e *execution) endSuper(x *superExec) { e.allocs += x.allocs }

// execSuper executes one compiled supercombinator body on the saturated
// redex v, the application of fun to the last of the operands ops. done
// reports whether v was rewritten; value additionally reports that the root
// became a WHNF literal (so the caller can complete v without another
// scheduler round trip).
//
// On a parallel machine two steps of v may both find its strict operands
// evaluated and run the body alongside each other. v is rewritten only if it
// is still the redex this step read (isRedexLocked); otherwise the body's
// fresh vertices stay unwired, garbage for the next cycle, and done is
// false: a second rewrite would leave v an indirection, under the WHNF flag
// the first one's evaluation set, to an application nobody evaluates.
func (e *execution) execSuper(v *graph.Vertex, sup *gm.Super, fun graph.VertexID, ops []graph.VertexID) (done, value bool) {
	x := e.beginSuper(v, sup)
	defer e.endSuper(x)

	// Operand value peek: a WHNF literal operand folds like a known
	// constant. Values are final once written, and the redex spine keeps
	// every operand reachable, so the read is stable for the whole
	// execution.
	for _, id := range ops {
		s := slot{id: id}
		if w, _ := e.resolveWHNF(id); w != nil {
			w.Lock()
			switch w.Kind {
			case graph.KindInt, graph.KindBool, graph.KindNil:
				s = slot{id: id, known: true, kind: w.Kind, val: w.Val}
			}
			w.Unlock()
		}
		x.opSlots = append(x.opSlots, s)
	}

	var root wire
	haveRoot := false
	for _, in := range x.sup.Code {
		if x.bad {
			return false, false
		}
		switch in.Op {
		case gm.OpPushArg:
			if in.A < 0 || int(in.A) >= len(ops) {
				e.fail(v, "compiled body bad operand %d in %s", in.A, sup.Name)
				return false, false
			}
			x.push(x.opSlots[in.A])
		case gm.OpPushLocal:
			n := x.local(in.A)
			if n == nil {
				return false, false
			}
			x.push(slot{id: n.ID})
		case gm.OpPushSuper:
			x.pushFresh(graph.KindSuper, in.A)
		case gm.OpPushComb:
			x.pushFresh(graph.KindComb, in.A)
		case gm.OpPushPrim:
			x.pushFresh(graph.KindPrim, in.A)
		case gm.OpPushInt:
			x.push(slot{known: true, kind: graph.KindInt, val: in.A})
		case gm.OpPushBool:
			x.push(slot{known: true, kind: graph.KindBool, val: in.A})
		case gm.OpPushNil:
			x.push(slot{known: true, kind: graph.KindNil})
		case gm.OpMkApp:
			args := x.materializeN(2)
			if args == nil {
				return false, false
			}
			n := x.alloc(graph.KindApply, 0)
			if n == nil {
				return false, false
			}
			x.wires = append(x.wires, wire{w: n, kind: graph.KindApply, args: args})
			x.push(slot{id: n.ID})
		case gm.OpMkPrimApp:
			s, built, ok := x.primApp(in)
			if !ok {
				return false, false
			}
			if built != nil {
				n := x.alloc(graph.KindPrimApp, in.A)
				if n == nil {
					return false, false
				}
				x.wires = append(x.wires, wire{w: n, kind: graph.KindPrimApp, val: in.A, args: built})
				s = slot{id: n.ID}
			}
			x.push(s)
		case gm.OpMkHole:
			n := x.alloc(graph.KindHole, 0)
			if n == nil {
				return false, false
			}
			if in.A < 0 || int(in.A) >= len(x.locals) {
				e.fail(v, "compiled body bad local slot %d in %s", in.A, sup.Name)
				return false, false
			}
			x.locals[in.A] = n
		case gm.OpKnot:
			t := x.pop()
			h := x.local(in.A)
			if x.bad || h == nil {
				return false, false
			}
			if t.known && t.id == graph.NilVertex {
				x.wires = append(x.wires, wire{w: h, kind: t.kind, val: t.val})
			} else {
				x.wires = append(x.wires, wire{w: h, kind: graph.KindInd, args: x.idArgs(t.id)})
			}
		case gm.OpUpdate:
			t := x.pop()
			if x.bad {
				return false, false
			}
			root, haveRoot = x.rootFor(t), true
		case gm.OpUpdateApp:
			args := x.materializeN(2)
			if args == nil {
				return false, false
			}
			root, haveRoot = wire{w: v, kind: graph.KindApply, args: args}, true
		case gm.OpUpdatePrimApp:
			s, built, ok := x.primApp(in)
			if !ok {
				return false, false
			}
			if built != nil {
				root = wire{w: v, kind: graph.KindPrimApp, val: in.A, args: built}
			} else {
				root = x.rootFor(s)
			}
			haveRoot = true
		case gm.OpUpdateLeaf:
			root, haveRoot = wire{w: v, kind: graph.Kind(in.A), val: in.B}, true
		default:
			e.fail(v, "compiled body unknown opcode %v in %s", in.Op, sup.Name)
			return false, false
		}
	}
	if x.bad || !haveRoot {
		if !haveRoot {
			e.fail(v, "compiled body of %s has no terminal update", sup.Name)
		}
		return false, false
	}

	x.wires = append(x.wires, root)
	var vbuf [spineInline]*graph.Vertex
	e.mut.Rewrite(v, x.fresh, e.vs(vbuf[:0], ops), func() {
		if !isRedexLocked(v, fun, ops[len(ops)-1]) {
			return
		}
		done = true
		for _, w := range x.wires {
			w.w.Kind = w.kind
			w.w.Val = w.val
			w.w.SetArgs(w.args...)
		}
	})
	if !done {
		return false, false
	}
	switch root.kind {
	case graph.KindInt, graph.KindBool, graph.KindNil:
		return true, true
	}
	return true, false
}

// rootFor plans the terminal update from a result slot: a known literal
// writes the root as a leaf directly; anything else collapses the root to
// an indirection.
func (x *superExec) rootFor(t slot) wire {
	if t.known {
		return wire{w: x.v, kind: t.kind, val: t.val}
	}
	return wire{w: x.v, kind: graph.KindInd, args: x.idArgs(t.id)}
}

// primApp pops an OpMkPrimApp/OpUpdatePrimApp's operands: if every
// needed operand is known the primitive folds to a value slot
// (built == nil); otherwise the operands are materialized and returned
// for the caller to wire into a primapp vertex (fresh or the root).
func (x *superExec) primApp(in gm.Instr) (s slot, built []graph.VertexID, ok bool) {
	n := int(in.B)
	if len(x.stack) < n {
		x.e.fail(x.v, "compiled body stack underflow in %s", x.sup.Name)
		return slot{}, nil, false
	}
	args := x.stack[len(x.stack)-n:]
	if s, folded := foldPrim(graph.Prim(in.A), args); folded {
		x.stack = x.stack[:len(x.stack)-n]
		return s, nil, true
	}
	ids := x.materializeN(n)
	if ids == nil {
		return slot{}, nil, false
	}
	return slot{}, ids, true
}

// foldPrim computes a primitive over known operand slots. A value primitive
// folds by the same table rule stepValuePrim applies; the structural folds
// are the ones a known literal decides (a list test, a branch selection, a
// forced seq operand). ok is false when a needed operand is unknown, the
// primitive is not foldable, or folding would bypass a runtime error path
// (the rule names an error, an operand is mistyped): the primapp is then
// built and reproduces the error when stepped.
func foldPrim(p graph.Prim, args []slot) (slot, bool) {
	boolS := func(b bool) slot {
		var v int64
		if b {
			v = 1
		}
		return slot{known: true, kind: graph.KindBool, val: v}
	}
	switch p {
	case graph.PrimIsNil, graph.PrimIsPair:
		if !args[0].known {
			return slot{}, false
		}
		if p == graph.PrimIsNil {
			return boolS(args[0].kind == graph.KindNil), true
		}
		return boolS(false), true // known kinds are never cons
	case graph.PrimIf:
		if !args[0].known || args[0].kind != graph.KindBool {
			return slot{}, false
		}
		if args[0].val != 0 {
			return args[1], true
		}
		return args[2], true
	case graph.PrimSeq:
		if !args[0].known {
			return slot{}, false
		}
		return args[1], true
	}
	want := p.Operand()
	if want == 0 {
		return slot{}, false
	}
	var x [2]int64
	for i, a := range args[:p.Arity()] {
		if !a.known || a.kind != want {
			return slot{}, false
		}
		x[i] = a.val
	}
	kind, val, errName := p.Apply(x[0], x[1])
	if errName != "" {
		return slot{}, false
	}
	return slot{known: true, kind: kind, val: val}, true
}

// ---- stack machine helpers ----

func (x *superExec) push(s slot) { x.stack = append(x.stack, s) }

func (x *superExec) pop() slot {
	if len(x.stack) == 0 {
		x.e.fail(x.v, "compiled body stack underflow in %s", x.sup.Name)
		x.bad = true
		return slot{}
	}
	s := x.stack[len(x.stack)-1]
	x.stack = x.stack[:len(x.stack)-1]
	return s
}

// alloc allocates one fresh vertex into the invocation's fresh set.
func (x *superExec) alloc(kind graph.Kind, val int64) *graph.Vertex {
	n, err := x.e.mut.Alloc(x.part, kind, val)
	if err != nil {
		x.e.fail(x.v, "out of free vertices: %v", err)
		x.bad = true
		return nil
	}
	x.allocs++
	x.fresh = append(x.fresh, n)
	return n
}

func (x *superExec) pushFresh(kind graph.Kind, val int64) {
	if n := x.alloc(kind, val); n != nil {
		x.push(slot{id: n.ID})
	}
}

// materialize gives a slot a real vertex, allocating the deferred literal
// leaf if needed.
func (x *superExec) materialize(s *slot) bool {
	if s.id != graph.NilVertex {
		return true
	}
	n := x.alloc(s.kind, s.val)
	if n == nil {
		return false
	}
	s.id = n.ID
	return true
}

// materializeN pops n slots and returns their vertex IDs in stack order.
func (x *superExec) materializeN(n int) []graph.VertexID {
	if len(x.stack) < n {
		x.e.fail(x.v, "compiled body stack underflow in %s", x.sup.Name)
		x.bad = true
		return nil
	}
	at := len(x.ids)
	for i := 0; i < n; i++ {
		s := &x.stack[len(x.stack)-n+i]
		if !x.materialize(s) {
			return nil
		}
		x.ids = append(x.ids, s.id)
	}
	x.stack = x.stack[:len(x.stack)-n]
	return x.ids[at:]
}

// idArgs returns a one-element args list cut from the ids arena.
func (x *superExec) idArgs(id graph.VertexID) []graph.VertexID {
	x.ids = append(x.ids, id)
	return x.ids[len(x.ids)-1:]
}

func (x *superExec) local(i int64) *graph.Vertex {
	if i < 0 || int(i) >= len(x.locals) || x.locals[i] == nil {
		x.e.fail(x.v, "compiled body bad local slot %d in %s", i, x.sup.Name)
		x.bad = true
		return nil
	}
	return x.locals[i]
}
