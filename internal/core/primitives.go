package core

import (
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
)

// Mutator provides the cooperating mutator primitives of Figure 4-2
// (delete-reference, add-reference, expand-node) plus the task-structure
// mutations (request registration, value receipt, dereference) with their
// M_T cooperation. Every connectivity change the reduction process makes
// must go through a Mutator so the marking invariants hold:
//
//  1. for each transient vertex, at least one mark task is spawned on each
//     of its children (and mt-cnt reflects this);
//  2. a marked vertex never points to an unmarked vertex (weakened, as the
//     paper's re-marking also requires, to: ... unless a mark task for that
//     child is pending).
//
// Locking discipline: a primitive locks all vertices it manipulates in
// ascending ID order before reading any marking state, which makes it
// atomic with respect to marking tasks (which lock single vertices) and to
// other primitives. This realizes the paper's atomicity assumption (§4.1).
// A seeded machine's one owner runs one task at a time, which is the same
// atomicity, so there its primitives lock nothing (lockSpliceSet).
type Mutator struct {
	store    *graph.Store
	marker   *Marker
	mach     *sched.Machine
	counters *metrics.Counters
	// noCoop disables all marking cooperation — ONLY for the ablation
	// experiment that demonstrates the §4.2 race actually loses vertices
	// without it. Never set in a functioning system.
	noCoop bool
}

// NewMutator builds a mutator. counters may be nil.
func NewMutator(store *graph.Store, marker *Marker, mach *sched.Machine, counters *metrics.Counters) *Mutator {
	return &Mutator{store: store, marker: marker, mach: mach, counters: counters}
}

// SetCooperation enables or disables mutator/marker cooperation. Disabling
// it deliberately breaks the marking invariants; it exists so the ablation
// experiment can show the Figure 4-2 cooperation is load-bearing.
func (mu *Mutator) SetCooperation(enabled bool) { mu.noCoop = !enabled }

// Store returns the underlying vertex store.
func (mu *Mutator) Store() *graph.Store { return mu.store }

// Marker returns the marker this mutator cooperates with.
func (mu *Mutator) Marker() *Marker { return mu.marker }

// coopCount bumps the cooperating-mark counter.
func (mu *Mutator) coopCount() {
	if mu.counters != nil {
		mu.counters.CoopMarks.Add(1)
	}
}

// Alloc takes a vertex from the free list stamped with FreshAllocEpoch, so
// the restructuring sweep honors reduction axiom 1 (new vertices come only
// from F and are never garbage) throughout the allocation limbo. Stamping a
// real epoch here would race the sweep two ways: the stamp lands after the
// vertex is already labeled non-free, and the allocating goroutine can stall
// for whole cycles between Alloc and the splice that makes the vertex
// reachable — either way a sweep would reclaim the vertex before it is
// wired. The splice primitives (Rewrite, ExpandNode) record the real alloc
// epochs under the vertex locks at wiring time.
func (mu *Mutator) Alloc(part int, kind graph.Kind, val int64) (*graph.Vertex, error) {
	v, err := mu.store.AllocStamped(part, kind, val,
		graph.FreshAllocEpoch, graph.FreshAllocEpoch)
	if err != nil {
		return nil, err
	}
	if mu.counters != nil {
		mu.counters.Allocations.Add(1)
	}
	return v, nil
}

// DeleteReference is Figure 4-2's delete-reference(a,b): disconnect b from
// children(a). Deleting an edge can only create garbage, never hide live
// vertices, so no marking cooperation is required. It returns the request
// kind the edge carried and whether the edge existed.
func (mu *Mutator) DeleteReference(a, b *graph.Vertex) (graph.ReqKind, bool) {
	var ls lockSet
	defer lockVertices(&ls, a).unlock()
	return a.RemoveArg(b.ID)
}

// AddReference is Figure 4-2's add-reference(a,b,c), defined for three
// adjacent vertices with b ∈ children(a) and c ∈ children(b): connect c as
// a new child of a with request kind rk, cooperating with every active
// marking process so that invariants 1 and 2 are preserved.
func (mu *Mutator) AddReference(a, b, c *graph.Vertex, rk graph.ReqKind) {
	var ls lockSet
	defer lockVertices(&ls, a, b, c).unlock()
	for _, ctx := range []graph.Ctx{graph.CtxR, graph.CtxT} {
		if mu.marker.Active(ctx) {
			mu.coopAddRefLocked(ctx, a, b, c, rk)
		}
	}
	a.AddArg(c.ID, rk)
}

// coopAddRefLocked applies the marking cooperation of Figure 4-2's
// add-reference for one context. All three vertices are locked.
func (mu *Mutator) coopAddRefLocked(ctx graph.Ctx, a, b, c *graph.Vertex, rk graph.ReqKind) {
	if mu.noCoop {
		return
	}
	epoch := mu.marker.Epoch(ctx)
	sa := a.CtxOf(ctx).StateAt(epoch)
	sb := b.CtxOf(ctx).StateAt(epoch)
	switch {
	case sa == graph.Transient && sb == graph.Unmarked:
		// c may be untraced; spawn a mark from a and account for it.
		prior := min(a.CtxOf(ctx).Prior, rk.Priority())
		mu.marker.spawnMark(nil, ctx, a.ID, c.ID, prior, epoch)
		a.CtxOf(ctx).MtCnt++
		mu.coopCount()
	case sa == graph.Marked && sb == graph.Transient:
		// a is marked, so c must be at least transient before the connect:
		// execute the mark on c now, counted against the transient b.
		prior := min(b.CtxOf(ctx).Prior, rk.Priority())
		b.CtxOf(ctx).MtCnt++
		mu.marker.executeMarkLocked(c, ctx, epoch, b.ID, prior)
		mu.coopCount()
	}
	// All other state combinations need no action: if b is transient or
	// marked, invariant 1/2 applied to b guarantees a mark reaches c; if a
	// is unmarked, the eventual mark of a will trace the new edge.
}

// ExpandNode is Figure 4-2's expand-node(a,g): splice a subgraph g of
// freshly allocated vertices below a. splice relabels a and rewires its
// children under a's lock; the fresh vertices may reference each other and
// existing descendants of a (reachable from a through a chain of
// at-least-transient vertices), exactly as the paper's splice-in-subgraph
// allows. Marking cooperation: if a is marked, the fresh vertices are
// marked (with a's priority); if a is transient, marks are spawned on all
// of a's post-splice children.
func (mu *Mutator) ExpandNode(a *graph.Vertex, fresh []*graph.Vertex, splice func()) {
	var ls lockSet
	defer lockSpliceSet(&ls, a, fresh, nil).unlock()

	type coopPlan struct {
		ctx   graph.Ctx
		epoch uint64
		state graph.MarkState
		prior uint8
	}
	// Re-stamp the fresh vertices at splice time so the restructuring sweep
	// and the deadlock detector treat them as allocated in the cycle that
	// actually sees them become reachable.
	for _, g := range fresh {
		g.Red.AllocEpoch = mu.marker.Epoch(graph.CtxR)
		g.Red.AllocEpochT = mu.marker.Epoch(graph.CtxT)
	}

	var plans [2]coopPlan
	np := 0
	for _, ctx := range []graph.Ctx{graph.CtxR, graph.CtxT} {
		if mu.noCoop || !mu.marker.Active(ctx) {
			continue
		}
		epoch := mu.marker.Epoch(ctx)
		mc := a.CtxOf(ctx)
		st := mc.StateAt(epoch)
		plans[np] = coopPlan{ctx: ctx, epoch: epoch, state: st, prior: mc.Prior}
		np++
		if st == graph.Marked {
			// "if marked(a) then mark(g)".
			for _, g := range fresh {
				gc := g.CtxOf(ctx)
				gc.Epoch = epoch
				gc.MtCnt = 0
				gc.State = graph.Marked
				gc.MtPar = a.ID
				gc.Prior = mc.Prior
			}
			mu.coopCount()
		}
		// "else unmark(g)": fresh vertices have stale epochs and are
		// already unmarked; nothing to do.
	}

	splice()

	for _, p := range plans[:np] {
		if p.state != graph.Transient {
			continue
		}
		// "if transient(a) then for each x ∈ children(a) spawn mark1(x,a)".
		mc := a.CtxOf(p.ctx)
		if p.ctx == graph.CtxR {
			for i, x := range a.Args() {
				prior := min(p.prior, a.ReqKindAt(i).Priority())
				mu.marker.spawnMark(nil, p.ctx, a.ID, x, prior, p.epoch)
				mc.MtCnt++
			}
		} else {
			var buf [taskChildrenInline]graph.VertexID
			for _, x := range a.TaskChildren(buf[:0]) {
				mu.marker.spawnMark(nil, p.ctx, a.ID, x, 0, p.epoch)
				mc.MtCnt++
			}
		}
		mu.coopCount()
	}
}

// RelabelLeaf rewrites a into a leaf of the given kind/value, deleting all
// outgoing edges (a pure contraction: no cooperation needed).
func (mu *Mutator) RelabelLeaf(a *graph.Vertex, kind graph.Kind, val int64) {
	var ls lockSet
	defer lockVertices(&ls, a).unlock()
	a.Kind = kind
	a.Val = val
	a.SetArgs()
}

// coopTaskEdgeLocked handles M_T cooperation when vertex p gains a new
// task-traceable child x (x entered C(p) = requested(p) ∪ (args(p) −
// req-args(p))). p and x are locked by the caller. If p is T-transient the
// mark is counted against p; if p is already T-marked the marker accounts
// for it as an extra cycle root (there is no transient vertex whose mt-cnt
// could carry it).
func (mu *Mutator) coopTaskEdgeLocked(p, x *graph.Vertex) {
	if mu.noCoop || !mu.marker.Active(graph.CtxT) {
		return
	}
	epoch := mu.marker.Epoch(graph.CtxT)
	pc := p.CtxOf(graph.CtxT)
	if x.CtxOf(graph.CtxT).StateAt(epoch) != graph.Unmarked {
		return
	}
	switch pc.StateAt(epoch) {
	case graph.Transient:
		mu.marker.spawnMark(nil, graph.CtxT, p.ID, x.ID, 0, epoch)
		pc.MtCnt++
		mu.coopCount()
	case graph.Marked:
		if mu.marker.AddRootDuringCycle(graph.CtxT, x.ID, 0) {
			mu.coopCount()
		}
	}
}

// CompleteRequest records that y replied to x with its value: x leaves
// requested(y), and the edge x→y (if still present) returns to the
// unrequested remainder — the value has been received, so per reduction
// axiom 5's contrapositive the vertex is no longer "requested". Moving the
// edge back into args(x) − req-args(x) makes y task-traceable from x again,
// which requires M_T cooperation.
func (mu *Mutator) CompleteRequest(x, y *graph.Vertex) {
	var ls lockSet
	defer lockVertices(&ls, x, y).unlock()
	y.RemoveRequester(x.ID)
	ok := x.SetReqKind(y.ID, graph.ReqNone)
	if ok {
		mu.coopTaskEdgeLocked(x, y)
	}
}

// SetRequestKind records, on the requester's side, that x is about to
// request y's value with kind rk: the edge x→y (which must exist) moves
// into req-args_v(x)/req-args_e(x). Kinds only ever go up here (a vital
// request is never silently downgraded). Returns false if the edge is
// missing.
//
// M_R sees only a priority change (self-correcting next cycle, §5.3); for
// M_T the edge leaves C(x), a removal, so no cooperation is needed.
func (mu *Mutator) SetRequestKind(x, y *graph.Vertex, rk graph.ReqKind) bool {
	var ls lockSet
	defer lockVertices(&ls, x).unlock()
	i := x.ArgIndex(y.ID)
	if i < 0 {
		return false
	}
	if rk > x.ReqKindAt(i) {
		x.SetReqKindAt(i, rk)
	}
	return true
}

// AddRequesterCoop records, on the destination's side, that x requested
// y's value ("the execution of a task <s,v> results in adding s to
// requested(v)"). Duplicate registrations upgrade the stored kind instead
// of adding a second entry. Adding x to requested(y) makes x
// task-reachable from y, requiring M_T cooperation.
func (mu *Mutator) AddRequesterCoop(y, x *graph.Vertex, rk graph.ReqKind) {
	var ls lockSet
	defer lockVertices(&ls, x, y).unlock()
	reqs := y.Requested()
	for i := range reqs {
		if reqs[i].Src == x.ID {
			if rk > reqs[i].Kind {
				reqs[i].Kind = rk
			}
			return
		}
	}
	y.AddRequester(x.ID, rk)
	mu.coopTaskEdgeLocked(y, x)
}

// CoopTaskSpawn cooperates with an active M_T cycle when a new reduction
// task <src,dst> is spawned mid-cycle. M_T's root set is a snapshot of the
// task pools taken at cycle start (§5.2), so a task spawned after the
// snapshot is invisible to it — and the act of demanding moves the target
// out of C(spawner) (the edge enters req-args), leaving the pending task
// itself as the only carrier of task-reachability. Without cooperation the
// task's endpoints can finish the cycle T-unmarked and be misreported as
// deadlocked; because deadlock is stable (reduction axiom 4), one such
// false positive condemns the whole run. Each endpoint that is still
// unmarked at the current epoch is registered as an extra cycle root — the
// same pendingRoots generalization of rootpar that add-reference uses from
// marked parents.
//
// Vertices allocated at or after the cycle's epoch are skipped: the
// deadlock criterion already exempts them (AllocEpochT < epochT), so
// marking them buys nothing and would let a busy reduction phase keep the
// cycle alive indefinitely.
func (mu *Mutator) CoopTaskSpawn(src, dst graph.VertexID) {
	if mu.noCoop || !mu.marker.Active(graph.CtxT) {
		return
	}
	epoch := mu.marker.Epoch(graph.CtxT)
	for _, id := range [2]graph.VertexID{src, dst} {
		if id == graph.NilVertex {
			continue
		}
		v := mu.store.Vertex(id)
		if v == nil {
			continue
		}
		v.Lock()
		needsRoot := v.Kind != graph.KindFree &&
			v.Red.AllocEpochT < epoch &&
			v.CtxOf(graph.CtxT).StateAt(epoch) == graph.Unmarked
		v.Unlock()
		if needsRoot && mu.marker.AddRootDuringCycle(graph.CtxT, id, 0) {
			mu.coopCount()
		}
	}
}

// Dereference implements §3.2's dereferencing of an eagerly requested
// vertex whose value turned out to be irrelevant: the reference is removed
// from req-args_e(x) (here: the edge is deleted outright, so y can become
// garbage) and x is removed from requested(y). Removals need no marking
// cooperation.
func (mu *Mutator) Dereference(x, y *graph.Vertex) {
	var ls lockSet
	defer lockVertices(&ls, x, y).unlock()
	x.RemoveArg(y.ID)
	y.RemoveRequester(x.ID)
}
