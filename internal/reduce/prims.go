package reduce

import (
	"dgr/internal/graph"
)

// operand fetches the i-th operand edge of the PrimApp v.
func (e *Engine) operand(v *graph.Vertex, i int) (graph.VertexID, bool) {
	v.Lock()
	defer v.Unlock()
	args := v.Args()
	if v.Kind != graph.KindPrimApp || i >= len(args) {
		return graph.NilVertex, false
	}
	return args[i], true
}

// needValue resolves operand i to a WHNF vertex, demanding it with the
// given kind if not yet available. Returns (vertex, true) when ready.
func (e *Engine) needValue(v *graph.Vertex, i int, kind graph.ReqKind) (*graph.Vertex, bool) {
	op, ok := e.operand(v, i)
	if !ok {
		return nil, false
	}
	final, whnf := e.resolveWHNF(op)
	if whnf {
		return final, true
	}
	if final == nil {
		// Cyclic operand: quiesce; deadlock detection reports it.
		return nil, false
	}
	e.demandFrom(v, op, kind)
	return nil, false
}

// literal reads a WHNF operand w of v as a literal of the wanted kind,
// recording v's runtime error if it is anything else.
func (e *Engine) literal(v, w *graph.Vertex, want graph.Kind) (int64, bool) {
	w.Lock()
	kind, val := w.Kind, w.Val
	w.Unlock()
	if kind != want {
		e.fail(v, "operand v%d has kind %s, want %s", w.ID, kind, want)
		return 0, false
	}
	return val, true
}

// finishLeaf relabels v to a literal leaf and completes it.
func (e *Engine) finishLeaf(v *graph.Vertex, kind graph.Kind, val int64) {
	e.mut.RelabelLeaf(v, kind, val)
	v.Lock()
	v.WHNF = true
	v.Unlock()
	if e.cfg.Counters != nil {
		e.cfg.Counters.Rewrites.Add(1)
	}
	e.complete(v)
}

// finishBool is finishLeaf for booleans.
func (e *Engine) finishBool(v *graph.Vertex, b bool) {
	var n int64
	if b {
		n = 1
	}
	e.finishLeaf(v, graph.KindBool, n)
}

// collapseToOperand rewrites v to an indirection to its direct child at
// operand index i and reports that reduction continues.
func (e *Engine) collapseToOperand(v *graph.Vertex, i int) bool {
	op, ok := e.operand(v, i)
	if !ok {
		return false
	}
	c := e.store.Vertex(op)
	if c == nil {
		return false
	}
	e.mut.CollapseToIndDirect(v, c)
	if e.cfg.Counters != nil {
		e.cfg.Counters.Rewrites.Add(1)
	}
	return true
}

// stepPrimApp reduces a flattened primitive application.
func (e *Engine) stepPrimApp(v *graph.Vertex) bool {
	v.Lock()
	if v.Kind != graph.KindPrimApp {
		v.Unlock()
		return true
	}
	p := graph.Prim(v.Val)
	v.Unlock()

	kind := e.demandKind(v)

	if p.Operand() != 0 {
		e.stepValuePrim(v, p, kind)
		return false
	}
	switch p {
	case graph.PrimIf:
		return e.stepIf(v, kind)
	case graph.PrimCons:
		v.Lock()
		v.Kind = graph.KindCons
		v.Val = 0
		v.WHNF = true
		v.Unlock()
		e.complete(v)
	case graph.PrimHead, graph.PrimTail:
		return e.stepHeadTail(v, p, kind)
	case graph.PrimIsNil, graph.PrimIsPair:
		w, ok := e.needValue(v, 0, kind)
		if !ok {
			return false
		}
		w.Lock()
		wk := w.Kind
		w.Unlock()
		if p == graph.PrimIsNil {
			e.finishBool(v, wk == graph.KindNil)
		} else {
			e.finishBool(v, wk == graph.KindCons)
		}
	case graph.PrimSeq:
		if _, ok := e.needValue(v, 0, kind); !ok {
			return false
		}
		return e.collapseToOperand(v, 1)
	case graph.PrimSpec:
		return e.stepSpec(v)
	case graph.PrimPar:
		_, okA := e.needValue(v, 0, kind)
		_, okB := e.needValue(v, 1, kind)
		if !okA || !okB {
			return false
		}
		return e.collapseToOperand(v, 1)
	case graph.PrimIsBotOp:
		// Footnote 5's non-monotonic probe: the operand is demanded
		// vitally; if its value arrives the probe is false. If instead
		// the probe itself is later found deadlocked (its operand can
		// never return), ResolveBottomProbes relabels it true.
		op, okOp := e.operand(v, 0)
		if okOp {
			e.registerProbe(v.ID, op)
		}
		if _, ok := e.needValue(v, 0, graph.ReqVital); !ok {
			return false
		}
		e.unregisterProbe(v.ID)
		e.finishBool(v, false)
	default:
		e.fail(v, "unknown primitive %v", p)
	}
	return false
}

// stepValuePrim reduces a value primitive — arithmetic, comparison, boolean
// — by the one rule graph's table holds for it. Every operand is demanded
// before any is tested, so the operands evaluate in parallel; they are then
// type-checked in order.
func (e *Engine) stepValuePrim(v *graph.Vertex, p graph.Prim, kind graph.ReqKind) {
	var w [2]*graph.Vertex
	n, ready := p.Arity(), true
	for i := 0; i < n; i++ {
		var ok bool
		w[i], ok = e.needValue(v, i, kind)
		ready = ready && ok
	}
	if !ready {
		return
	}
	var x [2]int64
	want := p.Operand()
	for i := 0; i < n; i++ {
		var ok bool
		if x[i], ok = e.literal(v, w[i], want); !ok {
			return
		}
	}
	k, val, errName := p.Apply(x[0], x[1])
	if errName != "" {
		e.fail(v, "%s", errName)
		return
	}
	e.finishLeaf(v, k, val)
}

// stepIf implements the conditional. With SpeculativeIf, both branches are
// eagerly requested while the predicate computes (§3.2's eager tasks);
// once the predicate resolves, the dead branch is dereferenced — making
// any tasks already working on it irrelevant.
func (e *Engine) stepIf(v *graph.Vertex, kind graph.ReqKind) bool {
	if e.cfg.SpeculativeIf {
		for _, i := range []int{1, 2} {
			if op, ok := e.operand(v, i); ok {
				e.speculate(v, op)
			}
		}
	}
	c, ok := e.needValue(v, 0, kind)
	if !ok {
		return false
	}
	cond, ok := e.literal(v, c, graph.KindBool)
	if !ok {
		return false
	}
	thenOp, ok1 := e.operand(v, 1)
	elseOp, ok2 := e.operand(v, 2)
	if !ok1 || !ok2 {
		return false
	}
	chosen, dead := thenOp, elseOp
	if cond == 0 {
		chosen, dead = elseOp, thenOp
	}
	if dead != chosen {
		// Dereference the dead branch if it was speculatively requested:
		// remove it from req-args_e(v) and v from requested(dead). Its
		// in-flight tasks become irrelevant (Property 6).
		v.Lock()
		deadKind := v.ReqKindOf(dead)
		v.Unlock()
		if deadKind == graph.ReqEager {
			if dv := e.store.Vertex(dead); dv != nil {
				e.mut.Dereference(v, dv)
			}
		}
	}
	// The dereference may have shifted operand indexes; re-find chosen.
	v.Lock()
	hasChosen := v.HasArg(chosen)
	v.Unlock()
	if !hasChosen {
		e.fail(v, "if lost its chosen branch")
		return false
	}
	cv := e.store.Vertex(chosen)
	if cv == nil {
		return false
	}
	e.mut.CollapseToIndDirect(v, cv)
	if e.cfg.Counters != nil {
		e.cfg.Counters.Rewrites.Add(1)
	}
	return true
}

// speculate eagerly requests child's value on v's behalf, registering both
// sides synchronously (so the registration survives even if v is rewritten
// before the demand executes) and spawning the eager demand.
func (e *Engine) speculate(v *graph.Vertex, childID graph.VertexID) {
	child := e.store.Vertex(childID)
	if child == nil || childID == v.ID {
		return
	}
	v.Lock()
	cur := v.ReqKindOf(childID)
	v.Unlock()
	if cur != graph.ReqNone {
		return // already requested
	}
	child.Lock()
	whnf := e.whnfLocked(child)
	child.Unlock()
	if whnf {
		return // nothing to speculate
	}
	if !e.mut.SetRequestKind(v, child, graph.ReqEager) {
		return
	}
	e.mut.AddRequesterCoop(child, v, graph.ReqEager)
	e.spawn(taskDemandEager(v.ID, childID))
}

func (e *Engine) stepSpec(v *graph.Vertex) bool {
	op0, ok := e.operand(v, 0)
	if !ok {
		return false
	}
	e.speculate(v, op0)
	// Return the second operand immediately; the speculation's subgraph
	// becomes unreachable the moment v collapses, so its tasks are
	// irrelevant from then on — the paper's runaway-eager-work scenario.
	return e.collapseToOperand(v, 1)
}

func (e *Engine) stepHeadTail(v *graph.Vertex, p graph.Prim, kind graph.ReqKind) bool {
	w, ok := e.needValue(v, 0, kind)
	if !ok {
		return false
	}
	w.Lock()
	args := w.Args()
	if w.Kind != graph.KindCons || len(args) != 2 {
		wk := w.Kind
		w.Unlock()
		e.fail(v, "%v of non-pair %s", p, wk)
		return false
	}
	idx := 0
	if p == graph.PrimTail {
		idx = 1
	}
	target := args[idx]
	w.Unlock()

	tv := e.store.Vertex(target)
	if tv == nil {
		return false
	}
	e.mut.CollapseToInd(v, tv)
	if e.cfg.Counters != nil {
		e.cfg.Counters.Rewrites.Add(1)
	}
	return true
}
