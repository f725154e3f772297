// Package core implements the paper's primary contribution: the
// decentralized graph-marking algorithm that executes concurrently with
// graph mutation, the cooperating mutator primitives of Figure 4-2, and the
// endless mark/restructure collector cycles of §4–§5.
//
// Marking is realized as mark and return tasks flowing through the same PE
// machinery as the reduction process; a task is what crosses a partition
// boundary, and the arcs inside a partition are walked by the PE that pops
// the task (see wave). The two marking processes M_R
// (Figure 5-1/5-2: mark2 from the root with priorities) and M_T
// (Figure 5-3: mark3 from the task pools) share one implementation
// parameterized by the marking context: context R traces args(v) and
// propagates min-priority; context T traces requested(v) ∪ (args(v) −
// req-args(v)) and ignores priority.
package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// Root names a starting vertex for a marking cycle. For M_R there is a
// single root with priority 3 ("we assume that the value of the root is
// essential to the overall computation", Figure 5-2); for M_T there is one
// root per task endpoint, standing in for the virtual troot/taskroot_i
// vertices of §5.2.
type Root struct {
	ID    graph.VertexID
	Prior uint8
}

// ctxState is the per-context cycle bookkeeping: the paper's rootpar/done
// protocol generalized to many roots.
type ctxState struct {
	epoch  atomic.Uint64
	active atomic.Bool

	mu           sync.Mutex
	pendingRoots int64
	done         chan struct{}

	// negCnt counts mt-cnt underflows — always zero in a correct run;
	// surfaced by the invariant checker.
	negCnt atomic.Int64
	// staleDropped counts epoch-mismatched marking tasks dropped.
	staleDropped atomic.Int64
	// upgrades counts Figure 5-1 re-marks: a vertex already touched this
	// cycle is reached at a higher priority and its children are marked
	// again. The order of a partition's list exists to keep this at zero.
	upgrades atomic.Int64
}

// Marker executes mark and return tasks and tracks cycle completion for the
// two marking contexts.
type Marker struct {
	store    *graph.Store
	mach     *sched.Machine
	counters *metrics.Counters
	ctxs     [2]ctxState

	// budget is waveBudget; this package's step-granular tests set it to 0
	// to get the paper-literal schedule of one task per arc.
	budget int
	// parts[p] is partition p's pending marking work, kept across tasks.
	parts []partSlot

	// faultSkipN, when n > 0, silently drops a deterministic 1/n of child
	// mark spawns (and their mt-cnt increments, so cycles still terminate).
	// Test-only: it manufactures a marking-invariant violation — an
	// unmarked vertex reachable from a marked parent — for validating the
	// invariant checker. Selection hashes (parent, child, epoch) rather
	// than counting calls, so a recorded parallel run and its serial replay
	// skip exactly the same marks regardless of execution order.
	faultSkipN atomic.Int64
	// absorbed, if set, is told of every mark and return a drain takes in
	// from its pool (SetAbsorbHook).
	absorbed func(task.Task) bool
}

// SetFaultSkipMark arms the test-only fault injector: a deterministic 1/n
// of child marks spawned by modify are skipped entirely. n <= 0 disarms it.
func (m *Marker) SetFaultSkipMark(n int64) { m.faultSkipN.Store(n) }

// SetAbsorbHook has fn called with every mark and return a drain takes in
// from its partition's pool, where it runs without an execution of its own:
// the schedule recorder logs each, and replay accounts for them. It returns
// the hook it replaces. Set it before the machine runs; fn runs under the
// pool's lock and must not touch the machine.
func (m *Marker) SetAbsorbHook(fn func(task.Task) bool) (prev func(task.Task) bool) {
	prev, m.absorbed = m.absorbed, fn
	return prev
}

// NewMarker builds a marker over the given store and machine. counters may
// be nil.
func NewMarker(store *graph.Store, mach *sched.Machine, counters *metrics.Counters) *Marker {
	m := &Marker{store: store, mach: mach, counters: counters, budget: waveBudget,
		parts: make([]partSlot, mach.PEs())}
	for p := range m.parts {
		m.parts[p].list.part = p
	}
	for i := range m.ctxs {
		ch := make(chan struct{})
		close(ch) // no cycle yet: "done"
		m.ctxs[i].done = ch
	}
	return m
}

// Epoch returns the current cycle epoch of a context.
func (m *Marker) Epoch(c graph.Ctx) uint64 { return m.ctxs[c].epoch.Load() }

// Active reports whether a marking cycle is in progress for the context.
func (m *Marker) Active(c graph.Ctx) bool { return m.ctxs[c].active.Load() }

// Done reports whether the most recently started cycle for the context has
// completed (true if none was ever started).
func (m *Marker) Done(c graph.Ctx) bool { return !m.ctxs[c].active.Load() }

// UnderflowCount returns the number of mt-cnt underflows observed (must be 0).
func (m *Marker) UnderflowCount(c graph.Ctx) int64 { return m.ctxs[c].negCnt.Load() }

// StaleDropped returns the number of stale marking tasks dropped.
func (m *Marker) StaleDropped(c graph.Ctx) int64 { return m.ctxs[c].staleDropped.Load() }

// Upgrades returns the number of Figure 5-1 re-marks in the context so far.
func (m *Marker) Upgrades(c graph.Ctx) int64 { return m.ctxs[c].upgrades.Load() }

// BeginCycle opens a new marking cycle for the context before its roots are
// known: it advances the epoch (implicitly unmarking every vertex) and marks
// the cycle active, holding one sentinel pending root that SeedRoots later
// releases. The returned channel is closed when every root's return has been
// received — the paper's "wait until done".
//
// Activating the cycle BEFORE the caller computes the root set is what makes
// M_T's taskpool snapshot sound in parallel mode: the snapshot is not atomic
// with respect to the PEs, and a reduction step can pass through instants
// where a waiting vertex's only task-reachability is the executing PE's
// program counter (e.g. complete() removes the requester backlink before it
// spawns the Result task that replaces it). With the cycle already active,
// every such spawn runs the cooperative hooks (Mutator.CoopTaskSpawn,
// coopTaskEdgeLocked) and registers still-unmarked endpoints as extra cycle
// roots — so any activity concurrent with the snapshot is covered by
// cooperation, and anything earlier is covered by the snapshot itself.
func (m *Marker) BeginCycle(c graph.Ctx) <-chan struct{} {
	st := &m.ctxs[c]
	st.mu.Lock()
	st.epoch.Add(1)
	st.pendingRoots = 1 // seeding sentinel, released by SeedRoots
	st.done = make(chan struct{})
	ch := st.done
	st.active.Store(true)
	st.mu.Unlock()
	return ch
}

// SeedRoots registers the cycle's root set and puts each root on its
// partition's list, which queues one continuation per partition the roots
// fall on; then it releases BeginCycle's seeding sentinel (so an empty root
// set completes the cycle immediately, unless cooperation added roots in
// between). At budget 0 every root is a mark task of its own.
func (m *Marker) SeedRoots(c graph.Ctx, roots []Root) {
	st := &m.ctxs[c]
	st.mu.Lock()
	epoch := st.epoch.Load()
	st.pendingRoots += int64(len(roots))
	st.mu.Unlock()

	for _, r := range roots {
		t := task.Task{Kind: task.Mark, Src: graph.NilVertex, Dst: r.ID, Ctx: c, Prior: r.Prior, Epoch: epoch}
		if m.budget == 0 {
			m.spawn(nil, t)
		} else {
			m.park(t)
		}
	}
	m.rootReturn(c) // release the seeding sentinel
}

// StartCycle begins a new marking cycle with a root set known up front:
// BeginCycle immediately followed by SeedRoots. M_R and schedule replay use
// it; M_T's live path interleaves its taskpool snapshot between the two
// halves (see BeginCycle).
func (m *Marker) StartCycle(c graph.Ctx, roots []Root) <-chan struct{} {
	ch := m.BeginCycle(c)
	m.SeedRoots(c, roots)
	return ch
}

// AddRootDuringCycle registers an extra root while a cycle is running. It is
// used by the cooperating mutator hooks when task activity reaches a vertex
// through an already-marked parent (so no transient vertex exists whose
// mt-cnt could account for the new work). Returns false — and does nothing —
// if the context's cycle is not active at this epoch.
func (m *Marker) AddRootDuringCycle(c graph.Ctx, id graph.VertexID, prior uint8) bool {
	st := &m.ctxs[c]
	st.mu.Lock()
	if !st.active.Load() {
		st.mu.Unlock()
		return false
	}
	epoch := st.epoch.Load()
	st.pendingRoots++
	st.mu.Unlock()

	m.spawnMark(nil, c, graph.NilVertex, id, prior, epoch)
	return true
}

// rootReturn processes a return addressed to rootpar.
func (m *Marker) rootReturn(c graph.Ctx) {
	st := &m.ctxs[c]
	st.mu.Lock()
	st.pendingRoots--
	if st.pendingRoots == 0 {
		st.active.Store(false)
		close(st.done)
	} else if st.pendingRoots < 0 {
		st.negCnt.Add(1)
		st.pendingRoots = 0
	}
	st.mu.Unlock()
}

// waveBudget is the number of marks and returns one executed task may visit.
// It bounds how long a PE stays away from its pool; DESIGN §8 has the
// measurements it was chosen by.
const waveBudget = 256

// wave is a best-first work list of marks and returns addressed to one
// partition. Each popped item is run through the same handleMark/handleReturn
// as a task would be, one vertex lock at a time, so draining a list is a
// schedule in which those tasks ran back to back on one PE — one of the
// schedules Figures 4-1, 5-1 and 5-3 allow.
type wave struct {
	part int // the partition whose items it holds
	// lifo[0] holds returns, lifo[1..3] marks of priority vital, eager and
	// below. pop takes the lowest non-empty index, and the list outlives the
	// task that filled it, so within a partition a vertex is first reached
	// at its final priority and Figure 5-1's re-marking (which walks a
	// subgraph a second time) does not arise.
	lifo [4][]task.Task
}

func (w *wave) push(t task.Task) {
	i := 0
	if t.Kind == task.Mark {
		i = 4 - int(max(t.Prior, graph.PriorReserve))
	}
	l := w.lifo[i]
	if n := len(l); n == cap(l) && n >= 256 {
		// Double, where append grows a long slice by less: a list keeps the
		// largest size it reached, and each new peak (an M_T root set a
		// little larger than the last) would otherwise cost another copy.
		l = slices.Grow(l, n)
	}
	w.lifo[i] = append(l, t)
}

func (w *wave) pop() (task.Task, bool) {
	for i := range w.lifo {
		if n := len(w.lifo[i]); n > 0 {
			t := w.lifo[i][n-1]
			w.lifo[i] = w.lifo[i][:n-1]
			return t, true
		}
	}
	return task.Task{}, false
}

func (w *wave) empty() bool {
	for _, l := range w.lifo {
		if len(l) > 0 {
			return false
		}
	}
	return true
}

// take moves o's items onto w, class by class, and leaves o empty.
func (w *wave) take(o *wave) {
	for i := range w.lifo {
		w.lifo[i] = append(w.lifo[i], o.lifo[i]...)
		o.lifo[i] = o.lifo[i][:0]
	}
}

// partSlot is one partition's pending marking work, kept across tasks (a warm
// marker allocates none) and padded off its neighbours' cache lines. list
// holds the items parked between tasks; while a drainer works on it without
// the lock, the items other PEs bring park on inbox, which the drainer takes
// in before it lets go (on a seeded machine nothing arrives mid-drain, and
// inbox stays empty).
//
// The invariant, under mu: a non-empty list is always being drained
// (draining), or has exactly one continuation queued (queued). unlockQueue
// is the one place that queues a continuation, and only when neither holds; a
// continuation clears queued when it runs.
type partSlot struct {
	mu       sync.Mutex
	list     wave
	inbox    wave
	draining bool
	queued   bool
	_        [64]byte
}

// add parks an item: on inbox while a drainer owns list. The caller holds mu.
func (s *partSlot) add(t task.Task) {
	if s.draining {
		s.inbox.push(t)
	} else {
		s.list.push(t)
	}
}

// continuation is the task that drains partition PartOf(dst)'s list. It is a
// mark of epoch 0, which no cycle has: the scheduler counts and bands it with
// the marks, and every reader that matches marking work to a cycle by epoch
// (the stale-task test, the invariant checker) passes it by. Which vertex of
// the partition dst is carries no meaning.
func continuation(dst graph.VertexID) task.Task {
	return task.Task{Kind: task.Mark, Src: graph.NilVertex, Dst: dst}
}

// IsContinuation reports whether t is a "continue partition PartOf(t.Dst)"
// task rather than a mark or return of some cycle.
func IsContinuation(t task.Task) bool { return t.Kind == task.Mark && t.Epoch == 0 }

// unlockQueue releases s.mu, queuing a continuation of s's partition (to dst,
// a vertex of it) first if the list is non-empty and has neither a drainer
// nor a continuation.
func (m *Marker) unlockQueue(s *partSlot, dst graph.VertexID) {
	queue := !s.draining && !s.queued && !s.list.empty()
	s.queued = s.queued || queue
	s.mu.Unlock()
	if queue {
		m.mach.Spawn(continuation(dst))
	}
}

// park puts a root on its partition's list, or on its inbox while another
// PE drains the partition (a stale drain of an earlier phase, say).
func (m *Marker) park(t task.Task) {
	s := &m.parts[m.mach.PartOf(t.Dst)]
	s.mu.Lock()
	s.add(t)
	m.unlockQueue(s, t.Dst)
}

// Handle executes a marking task: it puts the task's item, if it carries one,
// on its partition's list and drains the list best-first, up to the budget,
// taking in the marks and returns queued for the partition whenever the list
// runs dry (absorb). What a spent drain leaves stays on the list, for one
// continuation. A task that finds another PE draining the partition (a
// thief's) leaves its item to that drainer and returns at once. Non-marking
// tasks are ignored (the dispatcher routes them to the reduction engine).
func (m *Marker) Handle(t task.Task) {
	if !t.Kind.IsMarking() {
		return
	}
	// The list belongs to the destination's partition even when a thief
	// executes the task: local means local to the vertices, not to the PE.
	s := &m.parts[m.mach.PartOf(t.Dst)]
	s.mu.Lock()
	if IsContinuation(t) {
		s.queued = false
	} else {
		s.add(t)
	}
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()

	w := &s.list
	var marks int64
	for left := max(m.budget, 1); ; {
		for ; left > 0; left-- {
			it, ok := w.pop()
			if !ok {
				break
			}
			if it.Kind == task.Mark {
				m.handleMark(w, it)
				marks++
			} else {
				m.handleReturn(w, it)
			}
		}
		if left > 0 && m.absorb(w) {
			continue
		}
		s.mu.Lock()
		w.take(&s.inbox)
		if left > 0 && !w.empty() { // it was empty: drain what arrived
			s.mu.Unlock()
			continue
		}
		s.draining = false
		m.unlockQueue(s, t.Dst)
		break
	}
	if m.counters != nil && marks > 0 { // a lone return must not touch the shared line
		m.counters.MarkVisits.Add(marks)
	}
}

// absorb moves the marks and returns queued in partition w.part's pool onto w
// and reports whether it took any: a cut arc travels as a task, and joins the
// list of the partition it reaches instead of running as a task of its own
// when that partition is being drained. The pool releases what it hands over
// (Machine.Expunge), so the in-flight count stays exact; a continuation stays
// queued, since its partition's flag counts it.
func (m *Marker) absorb(w *wave) bool {
	p := w.part
	if m.mach.Pool(p).BandLens()[task.BandMarking] == 0 {
		return false
	}
	m.mach.Expunge(p, func(t task.Task) bool {
		if !t.Kind.IsMarking() || IsContinuation(t) || m.mach.PartOf(t.Dst) != p {
			return false // a stolen task of another partition stays put
		}
		if m.absorbed != nil && !m.absorbed(t) {
			return false
		}
		w.push(t)
		return true
	})
	return !w.empty()
}

// EachPending calls fn for every mark and return parked on a partition's
// list: work that is pending like a queued task but sits in no pool. Call it
// where no marking task executes (between deterministic steps, at
// quiescence); fn runs under the partition's lock and must not call the
// marker.
func (m *Marker) EachPending(fn func(task.Task)) {
	for i := range m.parts {
		s := &m.parts[i]
		s.mu.Lock()
		for _, l := range s.list.lifo {
			for _, t := range l {
				fn(t)
			}
		}
		s.mu.Unlock()
	}
}

// handleMark is mark2 of Figure 5-1 (context R) and mark3 of Figure 5-3
// (context T). mark1 of Figure 4-1 is the degenerate case with a single
// priority.
func (m *Marker) handleMark(w *wave, t task.Task) {
	st := &m.ctxs[t.Ctx]
	epoch := st.epoch.Load()
	if t.Epoch != epoch {
		st.staleDropped.Add(1)
		return
	}
	v := m.store.Vertex(t.Dst)
	if v == nil {
		m.spawnReturn(w, t.Ctx, t.Dst, t.Src, epoch)
		return
	}

	v.Lock()
	mc := v.CtxOf(t.Ctx)
	switch mc.StateAt(epoch) {
	case graph.Unmarked:
		m.modifyLocked(w, v, t.Ctx, epoch, t.Src, t.Prior)
	default:
		if t.Ctx == graph.CtxT || t.Prior <= mc.Prior {
			// Already (being) marked at sufficient priority: just release
			// our parent.
			v.Unlock()
			m.spawnReturn(w, t.Ctx, t.Dst, t.Src, epoch)
			return
		}
		// Re-mark at the higher priority (Figure 5-1): if v is transient,
		// release the old marking-tree parent first. The order of a
		// partition's list exists to make this rare.
		st.upgrades.Add(1)
		if mc.State == graph.Transient {
			old := mc.MtPar
			m.spawnReturn(w, t.Ctx, t.Dst, old, epoch)
		}
		m.modifyLocked(w, v, t.Ctx, epoch, t.Src, t.Prior)
	}
	v.Unlock()
}

// taskChildrenInline sizes the stack buffer M_T's child walks hand to
// Vertex.TaskChildren; a vertex with more task children than this spills the
// walk to the heap.
const taskChildrenInline = 8

// modifyLocked is the modify(v,par,prior) procedure of Figure 5-1: touch v,
// record the marking-tree parent and priority, spawn mark tasks on the
// context's children, and mark immediately if there are none. The caller
// holds v's lock.
func (m *Marker) modifyLocked(w *wave, v *graph.Vertex, c graph.Ctx, epoch uint64, par graph.VertexID, prior uint8) {
	mc := v.CtxOf(c)
	mc.Touch(epoch, par, prior)

	if c == graph.CtxR {
		for i, a := range v.Args {
			if m.faultDropsMark(v.ID, a, epoch) {
				continue
			}
			childPrior := min(prior, v.ReqKinds[i].Priority())
			m.spawnMark(w, c, v.ID, a, childPrior, epoch)
			mc.MtCnt++
		}
	} else {
		var buf [taskChildrenInline]graph.VertexID
		for _, a := range v.TaskChildren(buf[:0]) {
			if m.faultDropsMark(v.ID, a, epoch) {
				continue
			}
			m.spawnMark(w, c, v.ID, a, 0, epoch)
			mc.MtCnt++
		}
	}
	if mc.MtCnt == 0 {
		mc.State = graph.Marked
		m.spawnReturn(w, c, v.ID, par, epoch)
	}
}

// handleReturn is return1 of Figure 4-1.
func (m *Marker) handleReturn(w *wave, t task.Task) {
	st := &m.ctxs[t.Ctx]
	epoch := st.epoch.Load()
	if t.Epoch != epoch {
		st.staleDropped.Add(1)
		return
	}
	if t.Dst == graph.NilVertex {
		m.rootReturn(t.Ctx)
		return
	}
	v := m.store.Vertex(t.Dst)
	if v == nil {
		return
	}
	v.Lock()
	mc := v.CtxOf(t.Ctx)
	if mc.Epoch != epoch {
		// A stale context here means the vertex was never touched this
		// cycle; the return is from dropped work.
		v.Unlock()
		st.staleDropped.Add(1)
		return
	}
	mc.MtCnt--
	if mc.MtCnt < 0 {
		mc.MtCnt = 0
		st.negCnt.Add(1)
	}
	if mc.MtCnt == 0 && mc.State == graph.Transient {
		mc.State = graph.Marked
		par := mc.MtPar
		v.Unlock()
		m.spawnReturn(w, t.Ctx, t.Dst, par, epoch)
		return
	}
	v.Unlock()
}

// faultDropsMark reports whether the armed fault injector claims this child
// mark. Disarmed (the normal case) it is a single atomic load. Armed, the
// decision is a pure function of (parent, child, epoch) — order-independent,
// so replay reproduces the recorded run's faults exactly.
func (m *Marker) faultDropsMark(par, child graph.VertexID, epoch uint64) bool {
	n := m.faultSkipN.Load()
	if n <= 0 {
		return false
	}
	h := uint64(par)*0x9E3779B97F4A7C15 ^ uint64(child)*0xBF58476D1CE4E5B9 ^ epoch*0x94D049BB133111EB
	h ^= h >> 31
	return h%uint64(n) == 0
}

// spawn routes a marking item: onto the drain's list when there is one, the
// budget is not 0 and the destination is in its partition (rootpar is
// everywhere), and into the destination's pool otherwise — the cut arc, and
// every cooperating mutator, which runs outside any drain.
func (m *Marker) spawn(w *wave, t task.Task) {
	if w != nil && m.budget > 0 && (t.Dst == graph.NilVertex || m.mach.PartOf(t.Dst) == w.part) {
		w.push(t)
		return
	}
	m.mach.Spawn(t)
}

// spawnMark issues a mark task.
func (m *Marker) spawnMark(w *wave, c graph.Ctx, par, dst graph.VertexID, prior uint8, epoch uint64) {
	m.spawn(w, task.Task{Kind: task.Mark, Src: par, Dst: dst, Ctx: c, Prior: prior, Epoch: epoch})
}

// spawnReturn issues a return task to the marking-tree parent par (from
// vertex from, for diagnostics).
func (m *Marker) spawnReturn(w *wave, c graph.Ctx, from, par graph.VertexID, epoch uint64) {
	m.spawn(w, task.Task{Kind: task.Return, Src: from, Dst: par, Ctx: c, Epoch: epoch})
}

// executeMarkLocked is the "execute mark1(c,b)" path of Figure 4-2's
// add-reference: run the mark logic on child synchronously so it is at
// least transient before the new reference is connected, preserving marking
// invariant 2 (a marked vertex never points to an unmarked vertex). The
// caller holds child's lock; par is the transient vertex whose mt-cnt was
// incremented for this mark.
func (m *Marker) executeMarkLocked(child *graph.Vertex, c graph.Ctx, epoch uint64, par graph.VertexID, prior uint8) {
	mc := child.CtxOf(c)
	if mc.StateAt(epoch) == graph.Unmarked {
		m.modifyLocked(nil, child, c, epoch, par, prior)
		return
	}
	m.spawnReturn(nil, c, child.ID, par, epoch)
}
