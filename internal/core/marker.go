// Package core implements the paper's primary contribution: the
// decentralized graph-marking algorithm that executes concurrently with
// graph mutation, the cooperating mutator primitives of Figure 4-2, and the
// endless mark/restructure collector cycles of §4–§5.
//
// Marking is realized as mark and return tasks flowing through the same PE
// machinery as the reduction process. The two marking processes M_R
// (Figure 5-1/5-2: mark2 from the root with priorities) and M_T
// (Figure 5-3: mark3 from the task pools) share one implementation
// parameterized by the marking context: context R traces args(v) and
// propagates min-priority; context T traces requested(v) ∪ (args(v) −
// req-args(v)) and ignores priority.
package core

import (
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
}

// Marker executes mark and return tasks and tracks cycle completion for the
// two marking contexts.
type Marker struct {
	store    *graph.Store
	mach     *sched.Machine
	counters *metrics.Counters
	ctxs     [2]ctxState

	// faultSkipN, when n > 0, silently drops a deterministic 1/n of child
	// mark spawns (and their mt-cnt increments, so cycles still terminate).
	// Test-only: it manufactures a marking-invariant violation — an
	// unmarked vertex reachable from a marked parent — for validating the
	// invariant checker. Selection hashes (parent, child, epoch) rather
	// than counting calls, so a recorded parallel run and its serial replay
	// skip exactly the same marks regardless of execution order.
	faultSkipN atomic.Int64
}

// SetFaultSkipMark arms the test-only fault injector: a deterministic 1/n
// of child marks spawned by modify are skipped entirely. n <= 0 disarms it.
func (m *Marker) SetFaultSkipMark(n int64) { m.faultSkipN.Store(n) }

// NewMarker builds a marker over the given store and machine. counters may
// be nil.
func NewMarker(store *graph.Store, mach *sched.Machine, counters *metrics.Counters) *Marker {
	m := &Marker{store: store, mach: mach, counters: counters}
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

// SeedRoots registers and spawns the cycle's root set, then releases
// BeginCycle's seeding sentinel (so an empty root set completes the cycle
// immediately, unless cooperation added roots in between).
func (m *Marker) SeedRoots(c graph.Ctx, roots []Root) {
	st := &m.ctxs[c]
	st.mu.Lock()
	epoch := st.epoch.Load()
	st.pendingRoots += int64(len(roots))
	st.mu.Unlock()

	if len(roots) > 0 {
		// Seed the whole frontier in one batch: SpawnBatch buckets the root
		// marks by destination partition and delivers each bucket under a
		// single pool lock, so an M_T cycle with thousands of taskpool roots
		// fans out across the PEs in O(partitions) lock acquisitions instead
		// of O(roots) — the seeding step no longer serializes the phase it
		// starts.
		ts := make([]task.Task, len(roots))
		for i, r := range roots {
			ts[i] = task.Task{
				Kind:  task.Mark,
				Src:   graph.NilVertex, // rootpar
				Dst:   r.ID,
				Ctx:   c,
				Prior: r.Prior,
				Epoch: epoch,
			}
		}
		m.mach.SpawnBatch(ts)
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

	m.mach.Spawn(task.Task{
		Kind:  task.Mark,
		Src:   graph.NilVertex,
		Dst:   id,
		Ctx:   c,
		Prior: prior,
		Epoch: epoch,
	})
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

// Handle executes a marking task. Non-marking tasks are ignored (the
// dispatcher routes them to the reduction engine).
func (m *Marker) Handle(t task.Task) {
	switch t.Kind {
	case task.Mark:
		m.handleMark(t)
	case task.Return:
		m.handleReturn(t)
	}
}

// handleMark is mark2 of Figure 5-1 (context R) and mark3 of Figure 5-3
// (context T). mark1 of Figure 4-1 is the degenerate case with a single
// priority.
func (m *Marker) handleMark(t task.Task) {
	st := &m.ctxs[t.Ctx]
	epoch := st.epoch.Load()
	if t.Epoch != epoch {
		st.staleDropped.Add(1)
		return
	}
	v := m.store.Vertex(t.Dst)
	if v == nil {
		m.spawnReturn(t.Ctx, t.Dst, t.Src, epoch)
		return
	}

	v.Lock()
	mc := v.CtxOf(t.Ctx)
	switch mc.StateAt(epoch) {
	case graph.Unmarked:
		m.modifyLocked(v, t.Ctx, epoch, t.Src, t.Prior)
	default:
		if t.Ctx == graph.CtxT || t.Prior <= mc.Prior {
			// Already (being) marked at sufficient priority: just release
			// our parent.
			v.Unlock()
			m.spawnReturn(t.Ctx, t.Dst, t.Src, epoch)
			return
		}
		// Re-mark at the higher priority (Figure 5-1): if v is transient,
		// release the old marking-tree parent first.
		if mc.State == graph.Transient {
			old := mc.MtPar
			m.spawnReturn(t.Ctx, t.Dst, old, epoch)
		}
		m.modifyLocked(v, t.Ctx, epoch, t.Src, t.Prior)
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
func (m *Marker) modifyLocked(v *graph.Vertex, c graph.Ctx, epoch uint64, par graph.VertexID, prior uint8) {
	mc := v.CtxOf(c)
	mc.Touch(epoch, par, prior)

	if c == graph.CtxR {
		for i, a := range v.Args {
			if m.faultDropsMark(v.ID, a, epoch) {
				continue
			}
			childPrior := min(prior, v.ReqKinds[i].Priority())
			m.spawnMark(c, v.ID, a, childPrior, epoch)
			mc.MtCnt++
		}
	} else {
		var buf [taskChildrenInline]graph.VertexID
		for _, a := range v.TaskChildren(buf[:0]) {
			if m.faultDropsMark(v.ID, a, epoch) {
				continue
			}
			m.spawnMark(c, v.ID, a, 0, epoch)
			mc.MtCnt++
		}
	}
	if mc.MtCnt == 0 {
		mc.State = graph.Marked
		m.spawnReturn(c, v.ID, par, epoch)
	}
}

// handleReturn is return1 of Figure 4-1.
func (m *Marker) handleReturn(t task.Task) {
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
		m.spawnReturn(t.Ctx, t.Dst, par, epoch)
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

// spawnMark enqueues a mark task.
func (m *Marker) spawnMark(c graph.Ctx, par, dst graph.VertexID, prior uint8, epoch uint64) {
	m.mach.Spawn(task.Task{Kind: task.Mark, Src: par, Dst: dst, Ctx: c, Prior: prior, Epoch: epoch})
}

// spawnReturn enqueues a return task to the marking-tree parent par (from
// vertex from, for diagnostics).
func (m *Marker) spawnReturn(c graph.Ctx, from, par graph.VertexID, epoch uint64) {
	m.mach.Spawn(task.Task{Kind: task.Return, Src: from, Dst: par, Ctx: c, Epoch: epoch})
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
		m.modifyLocked(child, c, epoch, par, prior)
		return
	}
	m.spawnReturn(c, child.ID, par, epoch)
}
