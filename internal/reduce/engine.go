// Package reduce implements demand-driven, normal-order graph reduction
// over the distributed computation graph — the "reduction process" of the
// paper, whose tasks propagate between vertices and whose graph mutations
// all flow through internal/core's cooperating mutator primitives so that
// marking may proceed concurrently.
//
// The engine reduces Turner-style combinator graphs (S, K, I, B, C, S',
// B', C', Y) with strict arithmetic/comparison primitives, lazy pairs, and
// the speculative operators (eager if-branches, spec, par) that give rise
// to the paper's eager, reserve and irrelevant tasks.
package reduce

import (
	"fmt"
	"sync"

	"dgr/internal/core"
	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// inlineBudget is how many steps one execution runs on its destination
// vertex after its own, continuing the reduction in place, before it hands
// the rest to the scheduler as a Reduce task (DESIGN §8, "A reduction
// continues in place", has the chain lengths it was chosen from). It bounds
// how long a task keeps its PE from the collector and the halter: a
// reduction that never waits on another vertex, such as
// loop n = loop (n + 1), still yields every inlineBudget+1 steps.
const inlineBudget = 16

// maxIndChain bounds indirection-chain resolution; a longer chain is
// treated as unresolvable (a cyclic knot such as letrec x = x), which
// leaves the demand quiescent so the deadlock detector can find it.
const maxIndChain = 10_000

// Config parameterizes the engine.
type Config struct {
	// SpeculativeIf eagerly requests both branches of every if while its
	// predicate is being computed (§3.2's source of eager — and, after the
	// predicate resolves, irrelevant — tasks).
	SpeculativeIf bool
	// Prog resolves KindSuper leaves to compiled supercombinator bodies
	// (the machine's gm.Program table). Required only when the graph
	// contains compiled supercombinators.
	Prog *gm.Program
	// Counters receives statistics; optional.
	Counters *metrics.Counters
	// Tracing enables causal-lineage propagation: tasks spawned by the
	// engine inherit the trace context stamped on the vertex they originate
	// from, and every executed traced task republishes its context on its
	// destination vertex. Off (the default), spawns pay one boolean test.
	Tracing bool
}

// Value is the WHNF result delivered for a demanded root.
type Value struct {
	ID   graph.VertexID
	Kind graph.Kind
	Int  int64
	Bool bool
	Str  string
}

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case graph.KindInt:
		return fmt.Sprintf("%d", v.Int)
	case graph.KindBool:
		return fmt.Sprintf("%t", v.Bool)
	case graph.KindStr:
		return v.Str
	case graph.KindNil:
		return "[]"
	case graph.KindCons:
		return "(cons ...)"
	default:
		return fmt.Sprintf("<%s v%d>", v.Kind, v.ID)
	}
}

// Engine executes the reduction-process tasks (demand, result, reduce).
type Engine struct {
	store *graph.Store
	mach  *sched.Machine
	mut   *core.Mutator
	cfg   Config

	mu          sync.Mutex
	rootWaiters map[graph.VertexID][]chan Value
	errs        []error
	// probes maps pending is-bottom probe vertices to their operand; they
	// are resolved to true by ResolveBottomProbes when the deadlock
	// detector finds the probe itself deadlocked (footnote 5).
	probes map[graph.VertexID]graph.VertexID

	// superScratch holds idle compiled-body execution states for reuse, one
	// per body that has ever executed at the same time (at most one per PE).
	superScratch []*superExec

	// afterResolve, set only by tests, runs where resolveWHNF has released the
	// vertex it is about to return: the point at which another PE may rewrite
	// it before the caller acts on the answer.
	afterResolve func(*graph.Vertex)

	// budget is inlineBudget; SetInlineBudget changes it for tests.
	budget int
}

var _ sched.Handler = (*Engine)(nil)

// New builds an engine.
func New(store *graph.Store, mach *sched.Machine, mut *core.Mutator, cfg Config) *Engine {
	return &Engine{
		store:       store,
		mach:        mach,
		mut:         mut,
		cfg:         cfg,
		rootWaiters: make(map[graph.VertexID][]chan Value),
		probes:      make(map[graph.VertexID]graph.VertexID),
		budget:      inlineBudget,
	}
}

// SetInlineBudget replaces inlineBudget, for tests, before the engine runs a
// task. At 0 every continuation is a Reduce task: the schedule of an engine
// that does not continue in place.
func (e *Engine) SetInlineBudget(n int) { e.budget = n }

// ResolveBottomProbes implements footnote 5's is-bottom pseudo-function:
// given the vertices newly identified as deadlocked, every pending probe
// that is itself deadlocked (it vitally awaits a value that can never
// arrive) is resolved to true, un-sticking its requesters. The probe's
// operand edges are dropped, so an otherwise-unreachable deadlocked region
// becomes garbage and is reclaimed by the next cycle. It returns the
// resolved probe vertices.
//
// As the paper warns, is-bottom is non-monotonic: resolving a probe makes
// a "deadlocked" vertex produce a value after all, so callers must drop
// the resolved probes from any stable deadlock record.
func (e *Engine) ResolveBottomProbes(deadlocked []graph.VertexID) []graph.VertexID {
	if len(deadlocked) == 0 {
		return nil
	}
	dead := make(map[graph.VertexID]bool, len(deadlocked))
	for _, id := range deadlocked {
		dead[id] = true
	}
	e.mu.Lock()
	var hit []graph.VertexID
	for p := range e.probes {
		if dead[p] {
			hit = append(hit, p)
			delete(e.probes, p)
		}
	}
	e.mu.Unlock()

	var resolved []graph.VertexID
	for _, p := range hit {
		v := e.store.Vertex(p)
		if v == nil {
			continue
		}
		v.Lock()
		isProbe := v.Kind == graph.KindPrimApp && graph.Prim(v.Val) == graph.PrimIsBotOp
		v.Unlock()
		if !isProbe {
			continue
		}
		e.finishBool(v, true)
		resolved = append(resolved, p)
	}
	return resolved
}

// registerProbe records a pending is-bottom probe.
func (e *Engine) registerProbe(probe, operand graph.VertexID) {
	e.mu.Lock()
	e.probes[probe] = operand
	e.mu.Unlock()
}

// unregisterProbe drops a probe whose operand produced a value.
func (e *Engine) unregisterProbe(probe graph.VertexID) {
	e.mu.Lock()
	delete(e.probes, probe)
	e.mu.Unlock()
}

// Errors returns the runtime errors raised since the latest Demand.
func (e *Engine) Errors() []error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]error(nil), e.errs...)
}

func (e *Engine) fail(v *graph.Vertex, format string, args ...any) {
	e.mu.Lock()
	e.errs = append(e.errs, fmt.Errorf("v%d: %s", v.ID, fmt.Sprintf(format, args...)))
	e.mu.Unlock()
}

// Demand requests the value of root (the initial <-,root> task). The
// returned channel receives the WHNF value once computed; it never fires
// for a deadlocked or nonterminating computation.
func (e *Engine) Demand(root graph.VertexID) <-chan Value {
	return e.DemandTraced(root, 0, 0)
}

// DemandTraced is Demand with an explicit causal-lineage context: the root
// demand — and, transitively, every task its reduction spawns — belongs to
// trace, with parent as the root demand's causal parent span (the serving
// layer's eval span). A zero trace is an ordinary untraced Demand. A demand
// begins an evaluation: the runtime errors of the one before are forgotten.
func (e *Engine) DemandTraced(root graph.VertexID, trace uint64, parent uint32) <-chan Value {
	ch := make(chan Value, 1)
	e.mu.Lock()
	e.errs = e.errs[:0]
	e.rootWaiters[root] = append(e.rootWaiters[root], ch)
	e.mu.Unlock()
	t := task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root, Req: graph.ReqVital, Trace: trace}
	t.SetParentSpan(parent)
	e.spawn(t)
	return ch
}

// spawn enqueues a reduction task, then cooperates with any active M_T
// cycle: a task spawned after the cycle's pool snapshot is the sole carrier
// of task-reachability to its endpoints, so they must be registered as
// extra marking roots or the deadlock detector can misreport them. The
// push comes first: were cooperation checked before the push, a cycle
// beginning between the two (coop sees no active cycle, snapshot misses
// the not-yet-pushed task) would leave the task invisible to both views.
// Pushing first makes the pair airtight — a snapshot after the push sees
// the task queued, and a cycle activated before the push is active when
// the cooperation check runs.
func (e *Engine) spawn(t task.Task) {
	if e.cfg.Tracing && t.Trace == 0 {
		e.inheritTrace(&t)
	}
	e.mach.Spawn(t)
	e.mut.CoopTaskSpawn(t.Src, t.Dst)
}

// inheritTrace stamps a spawned task with the lineage context published on
// the vertex it causally originates from (Src; Dst for sourceless
// self-continuations). The reduction handlers release every vertex lock
// before spawning, so the brief acquisition here nests inside nothing.
func (e *Engine) inheritTrace(t *task.Task) {
	id := t.Src
	if id == graph.NilVertex {
		id = t.Dst
	}
	v := e.store.Vertex(id)
	if v == nil {
		return
	}
	v.Lock()
	if trace, span := v.Trace(); v.Kind != graph.KindFree && trace != 0 {
		t.Trace = trace
		t.SetParentSpan(span)
	}
	v.Unlock()
}

// publishTrace stamps the executing traced task's context on its
// destination vertex, making the task the causal parent of everything the
// reduction spawns from there. The context is opaque to the marking
// machinery and zeroed on reclamation, so the stamp cannot outlive the
// vertex.
func (e *Engine) publishTrace(t task.Task) {
	v := e.store.Vertex(t.Dst)
	if v == nil {
		return
	}
	v.Lock()
	if v.Kind != graph.KindFree {
		v.SetTrace(t.Trace, t.Span())
	}
	v.Unlock()
}

// Handle implements sched.Handler for reduction tasks. A step that leaves
// its vertex needing another reports it (the handlers' "again" result) and
// Handle runs that step itself, up to the budget, counting it with the
// machine (AddSteps); past the budget it spawns the step as a Reduce task.
// Every continuation is on t.Dst, the vertex the executing task names: the
// PE slot publishes it to M_T's root snapshot for the whole execution, and
// the verdict watch noted the task when it was popped.
func (e *Engine) Handle(t task.Task) {
	if t.Trace != 0 {
		e.publishTrace(t)
	}
	var again bool
	switch t.Kind {
	case task.Demand:
		again = e.handleDemand(t)
	case task.Result, task.Reduce:
		again = e.step(t.Dst)
	}
	n := 0
	for ; again && n < e.budget; n++ {
		again = e.step(t.Dst)
	}
	if n > 0 {
		e.mach.AddSteps(n)
	}
	if again {
		e.spawn(task.Task{Kind: task.Reduce, Dst: t.Dst})
	}
}

// ---- demand handling ----

// handleDemand executes a demand and reports whether its destination needs
// a reduction step: it has just started evaluating.
func (e *Engine) handleDemand(t task.Task) bool {
	v := e.store.Vertex(t.Dst)
	if v == nil {
		return false
	}
	kind := t.Req
	if kind == graph.ReqNone {
		// Reprioritized reserve demands execute as eager requests.
		kind = graph.ReqEager
	}

	v.Lock()
	if v.Kind == graph.KindFree {
		// Destination reclaimed: the task was irrelevant.
		v.Unlock()
		return false
	}
	whnf := e.whnfLocked(v)
	v.Unlock()

	if whnf {
		e.reply(v, t.Src)
		return false
	}

	if t.Src == graph.NilVertex {
		// Root demand: the waiter was registered by Demand.
	} else if src := e.store.Vertex(t.Src); src != nil {
		// "The execution of a task <s,v> results in adding s to
		// requested(v)" — with M_T cooperation.
		e.mut.AddRequesterCoop(v, src, kind)
	}

	// Re-check: v may have reached WHNF between the first check and the
	// registration; complete() drains the just-added requester.
	v.Lock()
	if e.whnfLocked(v) {
		v.Unlock()
		e.complete(v)
		return false
	}
	start := !v.Evaluating
	if start {
		v.Evaluating = true
	}
	v.Unlock()
	return start
}

// reply sends v's (already WHNF) value to a single requester or root waiter.
func (e *Engine) reply(v *graph.Vertex, src graph.VertexID) {
	if src == graph.NilVertex {
		e.notifyRoot(v)
		return
	}
	e.spawn(task.Task{Kind: task.Result, Src: v.ID, Dst: src})
}

// complete finishes v's evaluation: replies to every requester (removing
// them from requested(v) and resetting their request edges, per reduction
// axiom 5's contrapositive) and notifies root waiters.
//
// The Result is spawned before CompleteRequest tears the backlink down:
// the requester's T-coverage may flow entirely through requested(v) (v's
// subtree holds the only live tasks), so removing it first would leave
// the requester task-unreachable until the spawn lands — an unbounded
// window under goroutine preemption, and a false-deadlock source. The
// queued Result (Dst = requester) covers it through the transition.
func (e *Engine) complete(v *graph.Vertex) {
	v.Lock()
	if !e.whnfLocked(v) {
		v.Unlock()
		return
	}
	v.Evaluating = false
	v.WHNF = true
	var buf [spineInline]graph.Requester
	reqs := append(buf[:0], v.Requested()...)
	v.Unlock()

	for _, r := range reqs {
		src := e.store.Vertex(r.Src)
		if src == nil {
			continue
		}
		e.spawn(task.Task{Kind: task.Result, Src: v.ID, Dst: r.Src})
		e.mut.CompleteRequest(src, v)
	}
	e.notifyRoot(v)
}

func (e *Engine) notifyRoot(v *graph.Vertex) {
	e.mu.Lock()
	chans := e.rootWaiters[v.ID]
	delete(e.rootWaiters, v.ID)
	e.mu.Unlock()
	if len(chans) == 0 {
		return
	}
	val := e.ValueOf(v.ID)
	for _, ch := range chans {
		ch <- val
	}
}

// demandKind computes the urgency with which v should request its own
// operands: vital if anyone vitally awaits v (or it is a root), else eager.
func (e *Engine) demandKind(v *graph.Vertex) graph.ReqKind {
	v.Lock()
	kind := graph.ReqEager
	for _, r := range v.Requested() {
		if r.Kind == graph.ReqVital {
			kind = graph.ReqVital
			break
		}
	}
	id := v.ID
	v.Unlock()
	if kind == graph.ReqVital {
		return kind
	}
	e.mu.Lock()
	if len(e.rootWaiters[id]) > 0 {
		kind = graph.ReqVital
	}
	e.mu.Unlock()
	return kind
}

// demandFrom spawns a demand from parent for child's value, then records
// the request kind on the parent's edge. The spawn MUST come first: the
// model's invariant is that "a task has been spawned on each element of
// req-args(v)", and moving the edge into req-args removes the child from
// C(parent) — M_T stops tracing it downward — so from that instant the
// demand task is the child's only carrier of task-reachability. Setting
// the edge first opens a window (unbounded, if this goroutine is
// preempted) in which the child is covered by neither the parent's edge
// nor any task, and the deadlock detector confirms it as a false
// positive. Spawning first only over-covers: until the edge moves, the
// child is traced both via C(parent) and via the queued task. If the edge
// vanished under a concurrent rewrite the spawned demand is moot but
// harmless (the handler tolerates it). Already-requested edges are not
// re-demanded unless the kind is being upgraded.
func (e *Engine) demandFrom(parent *graph.Vertex, childID graph.VertexID, kind graph.ReqKind) {
	child := e.store.Vertex(childID)
	if child == nil {
		return
	}
	parent.Lock()
	cur := parent.ReqKindOf(childID)
	parent.Unlock()
	if cur >= kind && cur != graph.ReqNone {
		return // already requested at sufficient urgency
	}
	e.spawn(task.Task{Kind: task.Demand, Src: parent.ID, Dst: childID, Req: kind})
	e.mut.SetRequestKind(parent, child, kind)
}

// demandOperand demands a strict operand of a compiled-super redex on
// behalf of v. The operand's arg edge may live on an inner spine vertex
// (owner) rather than on v itself; the request kind goes on the owning
// edge — the path the marker propagates priorities along — while the
// demand task names v as the requester, so completion re-steps the
// saturated apply. Inner spines can be shared between several saturated
// applications, so duplicate-demand suppression keys on the child's
// requester list (per requester), not on the owning edge.
func (e *Engine) demandOperand(v *graph.Vertex, ownerID, childID graph.VertexID, kind graph.ReqKind) {
	if ownerID == v.ID {
		e.demandFrom(v, childID, kind)
		return
	}
	owner := e.store.Vertex(ownerID)
	child := e.store.Vertex(childID)
	if owner == nil || child == nil {
		return
	}
	child.Lock()
	for _, r := range child.Requested() {
		if r.Src == v.ID && r.Kind >= kind {
			child.Unlock()
			return // v already awaits this operand at sufficient urgency
		}
	}
	child.Unlock()
	// Spawn before annotating the owning edge, for the same reason as
	// demandFrom: once the edge enters req-args the task is the operand's
	// only task-reachability carrier, so it must already be queued. The
	// edge may have vanished under a concurrent rewrite of the spine; the
	// demand is still sound (v re-collects the spine when re-stepped).
	e.spawn(task.Task{Kind: task.Demand, Src: v.ID, Dst: childID, Req: kind})
	e.mut.SetRequestKind(owner, child, kind)
}

// ---- WHNF machinery ----

// whnfLocked reports whether v is in weak head normal form. Caller holds
// v's lock.
func (e *Engine) whnfLocked(v *graph.Vertex) bool {
	switch v.Kind {
	case graph.KindInt, graph.KindBool, graph.KindStr, graph.KindNil,
		graph.KindCons, graph.KindComb, graph.KindSuper:
		return true
	case graph.KindPrim:
		return graph.Prim(v.Val) != graph.PrimBottom
	case graph.KindApply, graph.KindPrimApp, graph.KindInd:
		return v.WHNF
	default: // Hole, Free
		return false
	}
}

// resolveWHNF follows indirection chains to the first non-indirection
// vertex and reports it and whether it is in WHNF, or nil if the chain is
// cyclic/dangling. Both are decided under one hold of the final vertex's
// lock: once it is dropped another PE may contract the vertex into an
// indirection and stepInd may mark that WHNF, and an answer assembled from two
// holds would call the indirection itself a value. A vertex seen in WHNF stays
// what it is, so a true answer holds after the unlock; a false one only costs
// the caller a demand.
func (e *Engine) resolveWHNF(id graph.VertexID) (*graph.Vertex, bool) {
	for i := 0; i < maxIndChain; i++ {
		v := e.store.Vertex(id)
		if v == nil {
			return nil, false
		}
		v.Lock()
		if v.Kind != graph.KindInd {
			whnf := e.whnfLocked(v)
			v.Unlock()
			if e.afterResolve != nil {
				e.afterResolve(v)
			}
			return v, whnf
		}
		args := v.Args()
		if len(args) == 0 {
			v.Unlock()
			return nil, false
		}
		id = args[0]
		v.Unlock()
	}
	return nil, false
}

// ---- the reduction step ----

// step makes progress on vertex id toward WHNF. It is invoked by Reduce
// and Result tasks and is idempotent: a step that cannot progress leaves
// the vertex quiescent until the awaited results arrive (or forever, in
// which case the vertex is deadlocked and M_T/M_R will say so). It reports
// whether id needs another step at once (a rewrite left it a new redex, or
// it changed underfoot), which Handle runs; so do the step functions below.
func (e *Engine) step(id graph.VertexID) bool {
	v := e.store.Vertex(id)
	if v == nil {
		return false
	}
	v.Lock()
	kind := v.Kind
	whnf := e.whnfLocked(v)
	v.Unlock()

	if whnf {
		e.complete(v)
		return false
	}

	switch kind {
	case graph.KindFree, graph.KindHole:
		// Reclaimed, or a stuck placeholder (deadlock candidate).
	case graph.KindPrim:
		// Only ⊥ reaches here: tie the Figure 3-1 self-knot and go quiet.
		e.mut.MakeSelfKnot(v)
	case graph.KindInd:
		return e.stepInd(v)
	case graph.KindApply:
		return e.stepApply(v)
	case graph.KindPrimApp:
		return e.stepPrimApp(v)
	}
	return false
}

func (e *Engine) stepInd(v *graph.Vertex) bool {
	v.Lock()
	args := v.Args()
	if v.Kind != graph.KindInd || len(args) == 0 {
		v.Unlock()
		return true
	}
	target := args[0]
	v.Unlock()

	final, whnf := e.resolveWHNF(target)
	if whnf {
		v.Lock()
		v.WHNF = true
		v.Unlock()
		e.complete(v)
		return false
	}
	if final == nil {
		// Cyclic indirection knot (letrec x = x): stuck; deadlock detection
		// will report it. Leave a vital self-request so the shape matches
		// Figure 3-1.
		e.mut.MakeSelfKnot(v)
		return false
	}
	e.demandFrom(v, target, e.demandKind(v))
	return false
}

// spine holds the operands of a collected partial-application spine, in
// application order. (The head leaf travels beside it, not in it: escape
// analysis treats a struct as one location, and the head's lock calls would
// drag the operand storage to the heap with it.)
type spine struct {
	ops []graph.VertexID
	// owners[i] is the apply vertex whose operand edge holds ops[i]. A
	// strict-operand demand must record its request kind on that edge —
	// the marker propagates priorities along arg edges, so annotating the
	// saturated apply (which has no edge to an inner operand) would hide
	// the operand from deadlock detection.
	owners []graph.VertexID
}

// spineInline is how many operands (and, in complete, requesters) a
// reduction step holds in its own stack frame. Every combinator and primitive
// redex fits (S' has four operands); only a supercombinator of higher arity,
// or a vertex awaited by more requesters, spills to the heap.
const spineInline = 8

// spineBuf is the stack storage stepApply lends a spine: room for the
// collected operands plus the one the redex itself supplies.
type spineBuf struct {
	ops, owners [spineInline]graph.VertexID
}

// spine returns an empty spine backed by b.
func (b *spineBuf) spine() spine {
	return spine{ops: b.ops[:0], owners: b.owners[:0]}
}

// maxSpineLen bounds a partial-application spine walk. A legal spine is
// acyclic, so its length is bounded by the store's live vertex count; a
// longer walk means reclamation corruption (e.g. a skipped mark freeing a
// live vertex that was then re-allocated) spliced the spine into a cycle,
// and following it would never terminate.
const maxSpineLen = 1 << 20

// collectSpine walks a WHNF partial application down its function edges
// (through indirections) to the head leaf, gathering operands into the
// caller's buf. ok is false if the structure changed underfoot or an
// indirection dangles; cyclic is true if the walk exceeded maxSpineLen,
// which only a corrupted (cyclic) spine can do.
func (e *Engine) collectSpine(f *graph.Vertex, buf *spineBuf) (head *graph.Vertex, sp spine, ok, cyclic bool) {
	sp = buf.spine()
	cur := f
	for {
		if len(sp.ops) > maxSpineLen {
			return nil, sp, false, true
		}
		cur.Lock()
		if cur.Kind != graph.KindApply {
			cur.Unlock()
			break
		}
		args := cur.Args()
		if len(args) != 2 {
			cur.Unlock()
			return nil, sp, false, false
		}
		fun, arg := args[0], args[1]
		cur.Unlock()
		sp.ops = append(sp.ops, arg)
		sp.owners = append(sp.owners, cur.ID)
		next, _ := e.resolveWHNF(fun)
		if next == nil {
			return nil, sp, false, false
		}
		cur = next
	}
	// Operands were collected outermost-first; reverse to application order.
	for i, j := 0, len(sp.ops)-1; i < j; i, j = i+1, j-1 {
		sp.ops[i], sp.ops[j] = sp.ops[j], sp.ops[i]
		sp.owners[i], sp.owners[j] = sp.owners[j], sp.owners[i]
	}
	return cur, sp, true, false
}

func (e *Engine) stepApply(v *graph.Vertex) bool {
	v.Lock()
	if v.Kind != graph.KindApply {
		v.Unlock()
		return true
	}
	args := v.Args()
	if len(args) != 2 {
		v.Unlock()
		e.fail(v, "apply vertex with %d args", len(args))
		return false
	}
	funID, argID := args[0], args[1]
	v.Unlock()

	f, whnf := e.resolveWHNF(funID)
	if f == nil {
		// Dangling or cyclic function position: stuck.
		e.mut.MakeSelfKnot(v)
		return false
	}
	if !whnf {
		e.demandFrom(v, funID, e.demandKind(v))
		return false
	}

	// f is a stable WHNF function value; collect its spine.
	f.Lock()
	fk := f.Kind
	f.Unlock()
	var buf spineBuf
	switch fk {
	case graph.KindApply:
		head, sp, ok, cyclic := e.collectSpine(f, &buf)
		if cyclic {
			// Permanent, not transient: stepping again would walk the same
			// cycle every step. Surface it as an engine error instead.
			e.fail(v, "cyclic application spine at v%d", f.ID)
			return false
		}
		if !ok {
			return true
		}
		return e.applySaturation(v, head, sp, argID)
	case graph.KindComb, graph.KindPrim, graph.KindSuper:
		return e.applySaturation(v, f, buf.spine(), argID)
	case graph.KindCons, graph.KindNil, graph.KindInt, graph.KindBool, graph.KindStr:
		e.fail(v, "cannot apply non-function %s", fk)
	default:
		e.fail(v, "cannot apply %s", fk)
	}
	return false
}

// applySaturation decides whether v (supplying one more operand to the
// WHNF function with the given head and spine) saturates a redex, and
// contracts it if so. It consumes sp: the redex's own operand is appended in
// place.
func (e *Engine) applySaturation(v, head *graph.Vertex, sp spine, argID graph.VertexID) bool {
	ops := append(sp.ops, argID)
	owners := append(sp.owners, v.ID)
	head.Lock()
	hk, hv := head.Kind, head.Val
	head.Unlock()

	switch hk {
	case graph.KindComb:
		c := graph.Comb(hv)
		ar := c.Arity()
		if ar == 0 {
			e.fail(v, "combinator %v with arity 0", c)
			return false
		}
		if len(ops) < ar {
			e.markPartial(v)
			return false
		}
		e.contract(v, c, ops)
		if e.cfg.Counters != nil {
			e.cfg.Counters.Rewrites.Add(1)
		}
		return true
	case graph.KindPrim:
		p := graph.Prim(hv)
		ar := p.Arity()
		if ar == 0 {
			e.fail(v, "applying nullary primitive %v", p)
			return false
		}
		if len(ops) < ar {
			e.markPartial(v)
			return false
		}
		e.flattenPrim(v, p, ops)
		if e.cfg.Counters != nil {
			e.cfg.Counters.Rewrites.Add(1)
		}
		return true
	case graph.KindSuper:
		if e.cfg.Prog == nil {
			e.fail(v, "supercombinator $%d without a compiled program", hv)
			return false
		}
		sup := e.cfg.Prog.Super(int(hv))
		if sup == nil {
			e.fail(v, "unknown supercombinator $%d", hv)
			return false
		}
		if len(ops) < sup.Arity {
			e.markPartial(v)
			return false
		}
		// Force strict operands first (the analysis guarantees the body
		// forces them anyway), so body execution sees known values and can
		// fold arithmetic and branch selection instead of building the
		// corresponding subgraphs. A cyclic operand proceeds unforced: the
		// built body exposes the knot to deadlock detection as usual.
		waiting := false
		var kind graph.ReqKind
		for i, strict := range sup.Strict {
			if !strict {
				continue
			}
			final, whnf := e.resolveWHNF(ops[i])
			if whnf || final == nil {
				continue
			}
			if !waiting {
				kind = e.demandKind(v)
			}
			e.demandOperand(v, owners[i], ops[i], kind)
			waiting = true
		}
		if waiting {
			return false
		}
		done, value := e.execSuper(v, sup, ops)
		if !done {
			return false
		}
		if e.cfg.Counters != nil {
			e.cfg.Counters.Rewrites.Add(1)
		}
		if value {
			// The body folded all the way to a literal root: v is already
			// WHNF; complete it without another step.
			v.Lock()
			v.WHNF = true
			v.Unlock()
			e.complete(v)
			return false
		}
		return true
	default:
		e.fail(v, "cannot apply %s", hk)
	}
	return false
}

// markPartial records that v is an under-applied (hence WHNF) application.
func (e *Engine) markPartial(v *graph.Vertex) {
	v.Lock()
	v.WHNF = true
	v.Unlock()
	e.complete(v)
}

// vs resolves a list of IDs to vertices (for lock sets), appending them to
// the caller's buffer.
func (e *Engine) vs(dst []*graph.Vertex, ids []graph.VertexID) []*graph.Vertex {
	for _, id := range ids {
		if w := e.store.Vertex(id); w != nil {
			dst = append(dst, w)
		}
	}
	return dst
}

// contract performs one combinator contraction, rewriting v in place.
func (e *Engine) contract(v *graph.Vertex, c graph.Comb, ops []graph.VertexID) {
	part := int(v.Part)
	var vbuf [spineInline]*graph.Vertex
	freshApply := func() *graph.Vertex {
		n, err := e.mut.Alloc(part, graph.KindApply, 0)
		if err != nil {
			e.fail(v, "out of free vertices: %v", err)
			return nil
		}
		return n
	}
	setV := func(fun, arg graph.VertexID) {
		v.Kind = graph.KindApply
		v.Val = 0
		v.SetArgs(fun, arg)
	}

	switch c {
	case graph.CombI: // I x → x
		if t := e.store.Vertex(ops[0]); t != nil {
			e.mut.CollapseToInd(v, t)
		}
	case graph.CombK: // K x y → x
		if t := e.store.Vertex(ops[0]); t != nil {
			e.mut.CollapseToInd(v, t)
		}
	case graph.CombS: // S f g x → (f x) (g x)
		n1, n2 := freshApply(), freshApply()
		if n1 == nil || n2 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1, n2}, e.vs(vbuf[:0], ops), func() {
			n1.SetArgs(ops[0], ops[2])
			n2.SetArgs(ops[1], ops[2])
			setV(n1.ID, n2.ID)
		})
	case graph.CombB: // B f g x → f (g x)
		n1 := freshApply()
		if n1 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1}, e.vs(vbuf[:0], ops), func() {
			n1.SetArgs(ops[1], ops[2])
			setV(ops[0], n1.ID)
		})
	case graph.CombC: // C f g x → (f x) g
		n1 := freshApply()
		if n1 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1}, e.vs(vbuf[:0], ops), func() {
			n1.SetArgs(ops[0], ops[2])
			setV(n1.ID, ops[1])
		})
	case graph.CombSP: // S' k f g x → k (f x) (g x)
		n1, n2, n3 := freshApply(), freshApply(), freshApply()
		if n1 == nil || n2 == nil || n3 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1, n2, n3}, e.vs(vbuf[:0], ops), func() {
			n1.SetArgs(ops[1], ops[3])
			n2.SetArgs(ops[2], ops[3])
			n3.SetArgs(ops[0], n1.ID)
			setV(n3.ID, n2.ID)
		})
	case graph.CombBP: // B' k f g x → k f (g x)
		n1, n2 := freshApply(), freshApply()
		if n1 == nil || n2 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1, n2}, e.vs(vbuf[:0], ops), func() {
			n1.SetArgs(ops[0], ops[1])
			n2.SetArgs(ops[2], ops[3])
			setV(n1.ID, n2.ID)
		})
	case graph.CombCP: // C' k f g x → k (f x) g
		n1, n2 := freshApply(), freshApply()
		if n1 == nil || n2 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1, n2}, e.vs(vbuf[:0], ops), func() {
			n2.SetArgs(ops[1], ops[3])
			n1.SetArgs(ops[0], n2.ID)
			setV(n1.ID, ops[2])
		})
	case graph.CombY: // Y f → f (Y f), as a cyclic knot: v := f v
		e.mut.Rewrite(v, nil, e.vs(vbuf[:0], ops[:1]), func() {
			setV(ops[0], v.ID)
		})
	default:
		e.fail(v, "unknown combinator %v", c)
	}
}

// flattenPrim rewrites the saturated prim redex v into the flat PrimApp
// form with the operands as direct children — making v's operand requests
// legal req-args(v) entries, as the model requires.
func (e *Engine) flattenPrim(v *graph.Vertex, p graph.Prim, ops []graph.VertexID) {
	var vbuf [spineInline]*graph.Vertex
	e.mut.Rewrite(v, nil, e.vs(vbuf[:0], ops), func() {
		v.Kind = graph.KindPrimApp
		v.Val = int64(p)
		v.SetArgs(ops...)
	})
}
