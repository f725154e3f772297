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
	"sync/atomic"

	"dgr/internal/core"
	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// inlineBudget is how many steps one execution runs in place after its own
// task's first: steps on the vertex it is reducing, continuing the reduction
// in place, and hand-offs, the local demands and results it runs instead of
// spawning them. Past it, a continuation is spawned as a Reduce task and a
// demand or result as itself (DESIGN §8, "A reduction continues in place"
// and "A local demand or result runs in place", have the measurements it was
// chosen from). It bounds how long a task keeps its PE from the collector
// and from a stopping machine: a reduction that never waits on another vertex, such as
// loop n = loop (n + 1), still yields every inlineBudget+1 steps.
const inlineBudget = 64

// rootSlots is how many awaited roots the lock-free root check holds. An
// evaluation awaits one; a root awaited past them sets spilled, and while any
// is spilled the check asks the waiter map.
const rootSlots = 4

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
}

// Value is the WHNF result delivered for a demanded root.
type Value struct {
	ID   graph.VertexID
	Kind graph.Kind
	Int  int64
	Bool bool
}

// String renders the value.
func (v Value) String() string {
	switch v.Kind {
	case graph.KindInt:
		return fmt.Sprintf("%d", v.Int)
	case graph.KindBool:
		return fmt.Sprintf("%t", v.Bool)
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
	// roots publishes the keys of rootWaiters for the lock-free root check
	// (awaited): each is in a slot, 0 when free, or counted in spilled. Both
	// are written under mu.
	roots   [rootSlots]atomic.Uint32
	spilled atomic.Int32
	errs    []error
	// probes maps pending is-bottom probe vertices to the number of the
	// execution that registered them; ResolveBottomProbes resolves them to
	// true, as that execution's children, when the deadlock detector finds
	// the probe itself deadlocked (footnote 5).
	probes map[graph.VertexID]uint64

	// superScratch holds each PE's compiled-body execution state, made at
	// its first body and reused by every one after. Only Handle runs bodies,
	// one at a time per PE and on the PE's own goroutine, so a PE's state
	// takes no lock.
	superScratch []*superExec

	// afterResolve, set only by tests, runs where resolveWHNF has released the
	// vertex it is about to return: the point at which another PE may rewrite
	// it before the caller acts on the answer.
	afterResolve func(*graph.Vertex)

	// budget is inlineBudget; SetInlineBudget changes it for tests.
	budget int
}

// execution is one task's execution on a PE: the engine, the partition it
// runs on, what the execution may still run in place, its number, and the
// rewrites and allocations it has made. The step functions,
// which reach the spawn and hand-off sites, are its methods. Handle keeps it
// on its stack, so no two executions share one.
type execution struct {
	*Engine
	// pe is the executing PE: it indexes the PE's slot (HandOff, TakeHandOff)
	// and its body state (superScratch), and nothing else.
	pe int
	// part is the partition of the popped task's destination: what "local"
	// means to the in-place rules (handOff, complete, stepApply), so a task
	// makes the same choices on whichever PE runs it (DESIGN §8, "A local
	// demand or result runs in place"). Every hand-off is on it, so it holds
	// for the whole execution.
	part int
	// left is how many steps the execution may still run in place: inline
	// steps on its task's vertex and hand-offs draw on it alike.
	left int
	// handed reports a pending hand-off, which the machine holds in the PE's
	// slot until Handle takes it.
	handed bool
	// num is the execution's number (sched.Machine.Running), 0 outside any:
	// every task it spawns or hands off carries it as its Parent.
	num uint64
	// rewrites and allocs tally the execution's graph rewrites and the
	// vertices it took from F; publish adds each to its counter once, as
	// Handle adds the execution's steps (DESIGN §9, "Counters and
	// exposition").
	rewrites, allocs int64
}

var _ sched.Handler = (*Engine)(nil)

// New builds an engine over the mutator's store and machine, which counts
// its tasks and tallies (sched.Machine.Counters).
func New(mut *core.Mutator, cfg Config) *Engine {
	mach := mut.Marker().Machine()
	e := &Engine{
		store:       mut.Store(),
		mach:        mach,
		mut:         mut,
		cfg:         cfg,
		rootWaiters: make(map[graph.VertexID][]chan Value),
		probes:      make(map[graph.VertexID]uint64),
		budget:      inlineBudget,
	}
	if cfg.Prog != nil { // only a compiled program has bodies to run
		e.superScratch = make([]*superExec, mach.PEs())
	}
	return e
}

// SetInlineBudget replaces inlineBudget, for tests, before the engine runs a
// task. At 0 every continuation is a Reduce task and every demand and result
// is spawned: the schedule of an engine that runs nothing in place.
func (e *Engine) SetInlineBudget(n int) { e.budget = n }

// ResolveBottomProbes implements footnote 5's is-bottom pseudo-function:
// given the vertices newly identified as deadlocked, every pending probe
// that is itself deadlocked (it vitally awaits a value that can never
// arrive) is resolved to true, un-sticking its requesters. The probe's
// operand edges are dropped, so an otherwise-unreachable deadlocked region
// becomes garbage and is reclaimed by the next cycle. It returns the
// resolved probe vertices.
//
// Probes resolve in the order of deadlocked, so their results are spawned
// in that order: the collector passes its verdict ascending (judgeVerdicts
// sorts it), which keeps a seeded schedule independent of map order.
//
// As the paper warns, is-bottom is non-monotonic: resolving a probe makes
// a "deadlocked" vertex produce a value after all, so callers must drop
// the resolved probes from any stable deadlock record.
func (e *Engine) ResolveBottomProbes(deadlocked []graph.VertexID) []graph.VertexID {
	type hit struct {
		p   graph.VertexID
		num uint64
	}
	var hits []hit
	e.mu.Lock()
	for _, p := range deadlocked {
		if num, ok := e.probes[p]; ok {
			hits = append(hits, hit{p, num})
			delete(e.probes, p)
		}
	}
	e.mu.Unlock()

	// Outside any execution: nothing runs in place, and each result goes out
	// as a child of the execution that registered its probe.
	x := &execution{Engine: e}
	defer x.publish()
	var resolved []graph.VertexID
	for _, h := range hits {
		v := e.store.Vertex(h.p)
		if v == nil {
			continue
		}
		v.Lock()
		isProbe := v.Kind == graph.KindPrimApp && graph.Prim(v.Val) == graph.PrimIsBotOp
		v.Unlock()
		if !isProbe {
			continue
		}
		x.num = h.num
		x.finishBool(v, true)
		resolved = append(resolved, h.p)
	}
	return resolved
}

// registerProbe records a pending is-bottom probe, and the execution that
// registered it.
func (e *execution) registerProbe(probe graph.VertexID) {
	e.mu.Lock()
	e.probes[probe] = e.num
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

// Demand requests the value of root (the initial <-,root> task, spawned
// from outside any execution). The returned channel receives the WHNF value
// once computed; it never fires for a deadlocked or nonterminating
// computation. A demand begins an evaluation: the runtime errors of the one
// before are forgotten.
func (e *Engine) Demand(root graph.VertexID) <-chan Value {
	ch := make(chan Value, 1)
	e.mu.Lock()
	e.errs = e.errs[:0]
	if len(e.rootWaiters[root]) == 0 {
		e.publishRoot(root)
	}
	e.rootWaiters[root] = append(e.rootWaiters[root], ch)
	e.mu.Unlock()
	x := &execution{Engine: e}
	x.spawn(task.Task{Kind: task.Demand, Src: graph.NilVertex, Dst: root, Req: graph.ReqVital})
	return ch
}

// spawn enqueues a reduction task as the execution's child, then
// cooperates with any active M_T cycle: a task spawned after the cycle's pool
// snapshot is the sole carrier of task-reachability to its endpoints, so they
// must be registered as extra marking roots or the deadlock detector can
// misreport them. The push comes first: were cooperation checked before the
// push, a cycle beginning between the two (coop sees no active cycle,
// snapshot misses the not-yet-pushed task) would leave the task invisible to
// both views. Pushing first makes the pair airtight — a snapshot after the
// push sees the task queued, and a cycle activated before the push is active
// when the cooperation check runs.
func (e *execution) spawn(t task.Task) {
	t.Parent = e.num
	e.mach.Spawn(t)
	e.mut.CoopTaskSpawn(t.Src, t.Dst)
}

// Handle implements sched.Handler for reduction tasks, executing t on PE pe.
// A step that leaves its vertex needing another reports it (the handlers'
// "again" result) and Handle runs that step itself; past the budget it
// spawns the step as a Reduce task. Every continuation is on t.Dst, the
// vertex the running task names: the PE slot publishes it to M_T's root
// snapshot for as long as it runs, and the verdict watch noted it when it
// was popped or handed off. When the task's steps are done, Handle runs the
// pending hand-off, if a step left one (handOff), as the PE's next task.
// Inline steps and hand-offs share the budget and are counted with the
// machine as steps (AddSteps), and the execution's rewrites and allocations
// are published when it ends. What the popped task and its hand-offs spawn
// is the execution's. Its partition is t.Dst's, whichever PE pe is: a thief
// makes the choices the task's home PE would.
func (e *Engine) Handle(pe int, t task.Task) {
	x := &execution{Engine: e, pe: pe, part: e.store.PartitionOf(t.Dst), left: e.budget,
		num: e.mach.Running(pe)}
	steps := 0
	for {
		var again bool
		switch t.Kind {
		case task.Demand:
			again = x.handleDemand(t)
		case task.Result, task.Reduce:
			again = x.step(t.Dst)
		}
		for ; again && x.left > 0; x.left-- {
			steps++
			again = x.step(t.Dst)
		}
		if again {
			x.spawn(task.Task{Kind: task.Reduce, Dst: t.Dst})
		}
		if !x.handed {
			break
		}
		x.handed = false
		steps++
		t = e.mach.TakeHandOff(pe)
	}
	if steps > 0 {
		e.mach.AddSteps(steps)
	}
	x.publish()
}

// publish adds the execution's tallies to the counters, with one add each.
func (e *execution) publish() {
	c := e.mach.Counters()
	if e.rewrites > 0 {
		c.Rewrites.Add(e.rewrites)
	}
	if e.allocs > 0 {
		c.Allocations.Add(e.allocs)
	}
}

// handOff sends t, a demand or result a step of this execution spawns, or
// runs it later in the execution instead: a hand-off (DESIGN §8, "A local
// demand or result runs in place"). It hands off a task in the vital band (a
// vital demand, or a result) whose destination is on the execution's
// partition (the store's, which the machine routes by), while the execution
// has budget left and no hand-off pending; the hand-off spends one step of
// the budget. Any other task is spawned. A hand-off pays what a spawn pays
// but the pool: it carries the execution's number, and the machine notes it
// against the verdict watch and publishes it in the executing PE's slot
// (sched.Machine.HandOff) before it cooperates with M_T, so the caller may
// move the edge it travels on as it would after a spawn.
func (e *execution) handOff(t task.Task) {
	if e.left == 0 || e.handed || (t.Kind == task.Demand && t.Req != graph.ReqVital) ||
		e.store.PartitionOf(t.Dst) != e.part {
		e.spawn(t)
		return
	}
	e.left--
	e.handed = true
	t.Parent = e.num
	e.mach.HandOff(e.pe, t)
	e.mut.CoopTaskSpawn(t.Src, t.Dst)
}

// ---- demand handling ----

// handleDemand executes a demand and reports whether its destination needs
// a reduction step: it has just started evaluating.
func (e *execution) handleDemand(t task.Task) bool {
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
func (e *execution) reply(v *graph.Vertex, src graph.VertexID) {
	if src == graph.NilVertex {
		e.notifyRoot(v)
		return
	}
	e.handOff(task.Task{Kind: task.Result, Src: v.ID, Dst: src})
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
// queued Result (Dst = requester) covers it through the transition; a
// handed-off one does from the PE's slot. The Result to the last requester on
// the execution's partition is the one complete may hand off.
//
// Two completions of v may overlap on a parallel machine: a demand's re-check
// finds v completed by another PE, or two steps of v reach its value. Each
// request is answered once: a completion takes, in the hold that flags v, only
// the requests no completion has taken yet (Requester.Answered).
func (e *execution) complete(v *graph.Vertex) {
	v.Lock()
	if !e.whnfLocked(v) {
		v.Unlock()
		return
	}
	v.Evaluating = false
	v.WHNF = true
	var buf [spineInline]graph.Requester
	reqs := buf[:0]
	rs := v.Requested()
	for i := range rs {
		if !rs[i].Answered {
			rs[i].Answered = true
			reqs = append(reqs, rs[i])
		}
	}
	v.Unlock()

	last := -1
	if e.left > 0 && !e.handed {
		for i := len(reqs) - 1; i >= 0; i-- {
			if e.store.PartitionOf(reqs[i].Src) == e.part {
				last = i
				break
			}
		}
	}
	for i, r := range reqs {
		src := e.store.Vertex(r.Src)
		if src == nil {
			continue
		}
		t := task.Task{Kind: task.Result, Src: v.ID, Dst: r.Src}
		if i == last {
			e.handOff(t)
		} else {
			e.spawn(t)
		}
		e.mut.CompleteRequest(src, v)
	}
	e.notifyRoot(v)
}

// notifyRoot delivers v's value to every root waiter of v. A vertex no root
// waiter awaits, which is nearly every vertex completed, costs the lock-free
// check alone.
func (e *Engine) notifyRoot(v *graph.Vertex) {
	if !e.awaited(v.ID) {
		return
	}
	e.mu.Lock()
	chans := e.rootWaiters[v.ID]
	if len(chans) > 0 {
		delete(e.rootWaiters, v.ID)
		e.unpublishRoot(v.ID)
	}
	e.mu.Unlock()
	if len(chans) == 0 {
		return
	}
	val := e.ValueOf(v.ID)
	for _, ch := range chans {
		ch <- val
	}
}

// Withdraw drops ch, which Demand returned for root, from
// root's waiters: the evaluation that awaited it has ended without the value,
// and a value delivered later would go to no one.
func (e *Engine) Withdraw(root graph.VertexID, ch <-chan Value) {
	e.mu.Lock()
	defer e.mu.Unlock()
	chans := e.rootWaiters[root]
	for i, c := range chans {
		if c == ch {
			chans = append(chans[:i], chans[i+1:]...)
			break
		}
	}
	if len(chans) > 0 {
		e.rootWaiters[root] = chans
		return
	}
	if _, ok := e.rootWaiters[root]; ok {
		delete(e.rootWaiters, root)
		e.unpublishRoot(root)
	}
}

// awaited reports whether a root waiter may await id, without a lock: false
// means none does; true, that the caller should look in rootWaiters under mu.
// A waiter is registered before the demand that serves it is spawned, so the
// execution that completes the root for it sees its slot.
func (e *Engine) awaited(id graph.VertexID) bool {
	for i := range e.roots {
		if graph.VertexID(e.roots[i].Load()) == id {
			return true
		}
	}
	return e.spilled.Load() > 0
}

// publishRoot gives a newly awaited root a slot, or counts it spilled. The
// caller holds mu.
func (e *Engine) publishRoot(root graph.VertexID) {
	for i := range e.roots {
		if e.roots[i].Load() == 0 {
			e.roots[i].Store(uint32(root))
			return
		}
	}
	e.spilled.Add(1)
}

// unpublishRoot frees the slot of a root no longer awaited, or uncounts it
// spilled. The caller holds mu.
func (e *Engine) unpublishRoot(root graph.VertexID) {
	for i := range e.roots {
		if graph.VertexID(e.roots[i].Load()) == root {
			e.roots[i].Store(0)
			return
		}
	}
	e.spilled.Add(-1)
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
	if kind == graph.ReqVital || !e.awaited(id) {
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
// the request kind on the parent's edge (request). The spawn MUST come
// first: the model's invariant is that "a task has been spawned on each
// element of req-args(v)", and moving the edge into req-args removes the
// child from C(parent) — M_T stops tracing it downward — so from that
// instant the demand task is the child's only carrier of
// task-reachability. Setting the edge first opens a window (unbounded, if
// this goroutine is preempted) in which the child is covered by neither
// the parent's edge nor any task, and the deadlock detector confirms it as
// a false positive. Spawning first only over-covers: until the edge moves,
// the child is traced both via C(parent) and via the queued (or handed-off)
// task. If the edge vanished under a concurrent rewrite the spawned demand
// is moot but harmless (the handler tolerates it). Already-requested edges
// are not re-demanded unless the kind is being upgraded.
func (e *execution) demandFrom(parent *graph.Vertex, childID graph.VertexID, kind graph.ReqKind) {
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
	e.request(parent, parent, child, kind)
}

// demandOperand demands a strict operand of a compiled-super redex on
// behalf of v. The operand's arg edge may live on an inner spine vertex
// (owner) rather than on v itself; the request kind goes on the owning
// edge — the path the marker propagates priorities along — while the
// demand task names v as the requester, so completion re-steps the
// saturated apply. Inner spines can be shared between several saturated
// applications, so duplicate-demand suppression keys on the child's
// requester list (per requester), not on the owning edge.
func (e *execution) demandOperand(v *graph.Vertex, ownerID, childID graph.VertexID, kind graph.ReqKind) {
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
	e.request(v, owner, child, kind)
}

// request sends v's demand for child's value at kind, handing it off if it
// may (handOff), then records kind on owner's edge to child: the demand is
// published, queued or pending, before the edge moves into req-args.
func (e *execution) request(v, owner, child *graph.Vertex, kind graph.ReqKind) {
	e.handOff(task.Task{Kind: task.Demand, Src: v.ID, Dst: child.ID, Req: kind})
	e.mut.SetRequestKind(owner, child, kind)
}

// ---- WHNF machinery ----

// whnfLocked reports whether v is in weak head normal form. Caller holds
// v's lock.
func (e *Engine) whnfLocked(v *graph.Vertex) bool {
	switch v.Kind {
	case graph.KindInt, graph.KindBool, graph.KindNil, graph.KindCons,
		graph.KindComb, graph.KindSuper:
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
func (e *execution) step(id graph.VertexID) bool {
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

func (e *execution) stepInd(v *graph.Vertex) bool {
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

func (e *execution) stepApply(v *graph.Vertex) bool {
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
	f.Lock()
	fk := f.Kind
	f.Unlock()
	// An application on the execution's partition may be a partial
	// application nobody has flagged yet: its spine is walked below instead
	// of demanded (DESIGN §8, "A partial application is a value").
	if !whnf && (fk != graph.KindApply || e.store.PartitionOf(f.ID) != e.part) {
		e.demandFrom(v, funID, e.demandKind(v))
		return false
	}

	// f is a WHNF function value, or an application to be recognised as one;
	// collect its spine.
	var buf spineBuf
	switch fk {
	case graph.KindApply:
		head, sp, ok, cyclic := e.collectSpine(f, &buf)
		if !whnf && !(ok && e.flagPartial(f, head, len(sp.ops))) {
			// Not a value yet, or a spine that does not resolve (a knot
			// such as let g = g in g 1 2): f's own evaluation decides.
			e.demandFrom(v, funID, e.demandKind(v))
			return false
		}
		if cyclic {
			// Permanent, not transient: stepping again would walk the same
			// cycle every step. Surface it as an engine error instead.
			e.fail(v, "cyclic application spine at v%d", f.ID)
			return false
		}
		if !ok {
			return true
		}
		return e.applySaturation(v, head, sp, funID, argID)
	case graph.KindComb, graph.KindPrim, graph.KindSuper:
		return e.applySaturation(v, f, buf.spine(), funID, argID)
	case graph.KindCons, graph.KindNil, graph.KindInt, graph.KindBool:
		e.fail(v, "cannot apply non-function %s", fk)
	default:
		e.fail(v, "cannot apply %s", fk)
	}
	return false
}

// applySaturation decides whether v, the application of funID to argID
// (supplying one more operand to the WHNF function with the given head and
// spine), saturates a redex, and contracts it if so. It consumes sp: the
// redex's own operand is appended in place.
func (e *execution) applySaturation(v, head *graph.Vertex, sp spine, funID, argID graph.VertexID) bool {
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
		if e.contract(v, c, funID, ops) {
			return false
		}
		e.rewrites++
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
		if e.flattenPrim(v, p, funID, ops) {
			return false
		}
		e.rewrites++
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
		done, value := e.execSuper(v, sup, funID, ops)
		if !done {
			return false
		}
		e.rewrites++
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
func (e *execution) markPartial(v *graph.Vertex) {
	v.Lock()
	v.WHNF = true
	v.Unlock()
	e.complete(v)
}

// flagPartial recognises f, an application whose spine of n operands has the
// given head, as a partial application in place: if the head is a function
// of more than n parameters and nobody is evaluating f, it flags f WHNF and
// completes it, as markPartial would at the end of f's own evaluation. It
// reports whether f is WHNF, and false if f must be demanded instead. The
// check and the flag are one hold of f's lock: a demand that starts
// evaluating f before it wins, and one after it finds f WHNF, so f is never
// evaluated and flagged both.
func (e *execution) flagPartial(f, head *graph.Vertex, n int) bool {
	if e.params(head) <= n {
		return false
	}
	f.Lock()
	if f.Kind != graph.KindApply || f.Evaluating {
		f.Unlock()
		return false
	}
	flagged := !f.WHNF
	f.WHNF = true
	f.Unlock()
	if flagged {
		e.complete(f)
	}
	return true
}

// params returns how many operands the function head takes: its arity, or 0
// if head is not a function (⊥ included) or names no supercombinator.
func (e *Engine) params(head *graph.Vertex) int {
	head.Lock()
	hk, hv := head.Kind, head.Val
	head.Unlock()
	switch hk {
	case graph.KindComb:
		return graph.Comb(hv).Arity()
	case graph.KindPrim:
		return graph.Prim(hv).Arity()
	case graph.KindSuper:
		if e.cfg.Prog != nil {
			if sup := e.cfg.Prog.Super(int(hv)); sup != nil {
				return sup.Arity
			}
		}
	}
	return 0
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

// isRedexLocked reports whether v is still the application of fun to arg
// that a step read it as; the caller holds v's lock, the rewrite's own hold.
// On a parallel machine two steps of one redex can both reach its rewrite
// (a Result for each of its operands steps it, and a thief may run one).
// The first rewrite moves v on, and its step continues v, to its value
// perhaps; the second would put v back to an earlier reduct under that
// value's WHNF flag and wire operands that may since have been freed. So a
// rewrite that builds new structure on v commits only if v is still the
// redex its step read; otherwise its fresh vertices stay unwired, garbage
// for the next cycle, and the step ends.
func isRedexLocked(v *graph.Vertex, fun, arg graph.VertexID) bool {
	a := v.Args()
	return v.Kind == graph.KindApply && len(a) == 2 && a[0] == fun && a[1] == arg
}

// contract performs one combinator contraction, rewriting v, the application
// of fun to the last of ops, in place. It reports true if v was no longer
// that redex and was left alone (isRedexLocked).
func (e *execution) contract(v *graph.Vertex, c graph.Comb, fun graph.VertexID, ops []graph.VertexID) (stale bool) {
	part := int(v.Part)
	var vbuf [spineInline]*graph.Vertex
	freshApply := func() *graph.Vertex {
		n, err := e.mut.Alloc(part, graph.KindApply, 0)
		if err != nil {
			e.fail(v, "out of free vertices: %v", err)
			return nil
		}
		e.allocs++
		return n
	}
	// Each rewrite below wires its fresh vertices and v only if v is still
	// the redex, under the rewrite's hold of v's lock.
	redex := func() bool {
		stale = !isRedexLocked(v, fun, ops[len(ops)-1])
		return !stale
	}
	setV := func(f, a graph.VertexID) {
		v.Kind = graph.KindApply
		v.Val = 0
		v.SetArgs(f, a)
	}

	// I and K make v an indirection to an operand: a second collapse makes
	// the same one, so it needs no test.
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
			if !redex() {
				return
			}
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
			if !redex() {
				return
			}
			n1.SetArgs(ops[1], ops[2])
			setV(ops[0], n1.ID)
		})
	case graph.CombC: // C f g x → (f x) g
		n1 := freshApply()
		if n1 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1}, e.vs(vbuf[:0], ops), func() {
			if !redex() {
				return
			}
			n1.SetArgs(ops[0], ops[2])
			setV(n1.ID, ops[1])
		})
	case graph.CombSP: // S' k f g x → k (f x) (g x)
		n1, n2, n3 := freshApply(), freshApply(), freshApply()
		if n1 == nil || n2 == nil || n3 == nil {
			return
		}
		e.mut.Rewrite(v, []*graph.Vertex{n1, n2, n3}, e.vs(vbuf[:0], ops), func() {
			if !redex() {
				return
			}
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
			if !redex() {
				return
			}
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
			if !redex() {
				return
			}
			n2.SetArgs(ops[1], ops[3])
			n1.SetArgs(ops[0], n2.ID)
			setV(n1.ID, ops[2])
		})
	case graph.CombY: // Y f → f (Y f), as a cyclic knot: v := f v
		e.mut.Rewrite(v, nil, e.vs(vbuf[:0], ops[:1]), func() {
			if !redex() {
				return
			}
			setV(ops[0], v.ID)
		})
	default:
		e.fail(v, "unknown combinator %v", c)
	}
	return stale
}

// flattenPrim rewrites the saturated prim redex v, the application of fun to
// the last of ops, into the flat PrimApp form with the operands as direct
// children — making v's operand requests legal req-args(v) entries, as the
// model requires. It reports true if v was no longer that redex and was left
// alone (isRedexLocked).
func (e *Engine) flattenPrim(v *graph.Vertex, p graph.Prim, fun graph.VertexID, ops []graph.VertexID) (stale bool) {
	var vbuf [spineInline]*graph.Vertex
	e.mut.Rewrite(v, nil, e.vs(vbuf[:0], ops), func() {
		if stale = !isRedexLocked(v, fun, ops[len(ops)-1]); stale {
			return
		}
		v.Kind = graph.KindPrimApp
		v.Val = int64(p)
		v.SetArgs(ops...)
	})
	return stale
}
