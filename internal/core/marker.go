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
// vertices of §5.2. The execution record logs a phase's roots as they are.
type Root = sched.Root

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
	// absorbed, if set, decides which marks and returns a drain may take in
	// from its pool (SetAbsorbHook).
	absorbed func(task.Task) bool
}

// SetFaultSkipMark arms the test-only fault injector: a deterministic 1/n
// of child marks spawned by modify are skipped entirely. n <= 0 disarms it.
func (m *Marker) SetFaultSkipMark(n int64) { m.faultSkipN.Store(n) }

// SetAbsorbHook has fn called with every mark and return a drain would take
// in from its partition's pool, where it runs without an execution of its
// own; the drain takes in only those fn accepts (nil: all). Replay
// (check.Replayer) uses it to take in what the recorded drain took in. Set
// it while no marking task runs; fn runs under the pool's lock and must not
// touch the machine.
func (m *Marker) SetAbsorbHook(fn func(task.Task) bool) { m.absorbed = fn }

// NewMarker builds a marker over the given store and machine. counters may
// be nil. mach must route by store.PartitionOf, as every machine that runs a
// marker does: the marker asks the store which partition owns a vertex.
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
	epoch := st.epoch.Load() + 1
	if epoch>>itemEpochBits != 0 { // a queued item holds 60 bits of it
		st.mu.Unlock()
		panic("core: marking epoch reached 2^60")
	}
	st.epoch.Store(epoch)
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
		it := markItem(c, graph.NilVertex, r.ID, r.Prior, epoch)
		if m.budget == 0 {
			m.spawn(nil, it)
		} else {
			m.park(it)
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

// item is one mark or return on a wave list: a task.Task of 16 bytes rather
// than 48. word packs epoch<<4 | ctx<<3 | isMark<<2 | prior; BeginCycle keeps
// every epoch below 2⁶⁰, so the packing loses nothing. A task is built from an
// item only where one leaves the drain: the cut, cooperation and EachPending.
type item struct {
	src, dst graph.VertexID
	word     uint64
}

// itemMark is the word's isMark bit; itemEpochBits is the width of its epoch.
const (
	itemMark      = 1 << 2
	itemEpochBits = 60
)

func markItem(c graph.Ctx, par, dst graph.VertexID, prior uint8, epoch uint64) item {
	return item{src: par, dst: dst, word: epoch<<4 | uint64(c)<<3 | itemMark | uint64(prior)}
}

func returnItem(c graph.Ctx, from, par graph.VertexID, epoch uint64) item {
	return item{src: from, dst: par, word: epoch<<4 | uint64(c)<<3}
}

// itemOf packs a mark or return task.
func itemOf(t task.Task) item {
	it := item{src: t.Src, dst: t.Dst, word: t.Epoch<<4 | uint64(t.Ctx)<<3 | uint64(t.Prior)}
	if t.Kind == task.Mark {
		it.word |= itemMark
	}
	return it
}

func (it item) isMark() bool   { return it.word&itemMark != 0 }
func (it item) ctx() graph.Ctx { return graph.Ctx(it.word >> 3 & 1) }
func (it item) prior() uint8   { return uint8(it.word & 3) }
func (it item) epoch() uint64  { return it.word >> 4 }

// task is the task it packs.
func (it item) task() task.Task {
	kind := task.Return
	if it.isMark() {
		kind = task.Mark
	}
	return task.Task{Kind: kind, Src: it.src, Dst: it.dst, Ctx: it.ctx(), Prior: it.prior(), Epoch: it.epoch()}
}

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
	//
	// lifo[i] is the top chunk of class i, empty only when the class is: up
	// to waveChunk items it grows by append, and past that deep holds the
	// full chunks under it.
	lifo [4][]item
	deep *waveChunks // nil until a class outgrows its first chunk
}

// waveChunk is the length of a wave list's chunks past its first (2 KB).
const waveChunk = 128

// waveChunks holds the chunks of a wave's classes past their first. A wave
// keeps every chunk it ever held, so a warm list allocates nothing, and a
// new peak costs one chunk per waveChunk items it adds, where a doubled
// slice would cost a copy of the whole class: a list's peak moves from cycle
// to cycle, and a doubling that lands in one evaluation and not the next
// would make their allocations differ by tens of kilobytes.
type waveChunks struct {
	full  [4][][]item // per class, the chunks under lifo[i], oldest first, each at capacity
	spare [][]item    // emptied chunks, for the next peak of any class
}

func (w *wave) push(it item) {
	i := 0
	if it.isMark() {
		i = 4 - int(max(it.prior(), graph.PriorReserve))
	}
	if n := len(w.lifo[i]); n == cap(w.lifo[i]) && n >= waveChunk {
		w.newChunk(i)
	}
	w.lifo[i] = append(w.lifo[i], it)
}

// newChunk puts class i's full top chunk under a spare or new one.
func (w *wave) newChunk(i int) {
	if w.deep == nil {
		w.deep = new(waveChunks)
	}
	d := w.deep
	d.full[i] = append(d.full[i], w.lifo[i])
	if k := len(d.spare); k > 0 {
		w.lifo[i] = d.spare[k-1]
		d.spare = d.spare[:k-1]
	} else {
		w.lifo[i] = make([]item, 0, waveChunk)
	}
}

func (w *wave) pop() (item, bool) {
	for i := range w.lifo {
		n := len(w.lifo[i])
		if n == 0 {
			continue
		}
		it := w.lifo[i][n-1]
		w.lifo[i] = w.lifo[i][:n-1]
		if n == 1 && w.deep != nil {
			if d := w.deep; len(d.full[i]) > 0 {
				k := len(d.full[i])
				d.spare = append(d.spare, w.lifo[i])
				w.lifo[i] = d.full[i][k-1]
				d.full[i] = d.full[i][:k-1]
			}
		}
		return it, true
	}
	return item{}, false
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
	for i := range o.lifo {
		o.eachOf(i, w.push)
	}
	o.clear()
}

// each calls fn for every item on w, class by class, oldest first.
func (w *wave) each(fn func(item)) {
	for i := range w.lifo {
		w.eachOf(i, fn)
	}
}

// eachOf calls fn for every item of class i, oldest first.
func (w *wave) eachOf(i int, fn func(item)) {
	if w.deep != nil {
		for _, c := range w.deep.full[i] {
			for _, it := range c {
				fn(it)
			}
		}
	}
	for _, it := range w.lifo[i] {
		fn(it)
	}
}

// clear empties w, keeping its chunks.
func (w *wave) clear() {
	for i := range w.lifo {
		if d := w.deep; d != nil && len(d.full[i]) > 0 {
			d.spare = append(d.spare, w.lifo[i][:0])
			for _, c := range d.full[i][1:] {
				d.spare = append(d.spare, c[:0])
			}
			w.lifo[i] = d.full[i][0]
			d.full[i] = d.full[i][:0]
		}
		w.lifo[i] = w.lifo[i][:0]
	}
}

// drain is a running drain's hold on its partition's list: the list, and a
// register for the newest return, which sits above lifo[0]. A mark's return
// is usually the next item the drain pops, so it passes through the register
// and never touches the list; pop takes the register first, which is what the
// list would have returned. The register lives on the drainer's stack, not in
// the wave, so that a partSlot stays 304 bytes. take, which takes in the
// inbox whenever a drain would stop, first puts a held return back on the
// list. parent is the number of the execution running the drain: what the
// drain spawns carries it (task.Task.Parent).
type drain struct {
	w      *wave
	ret    item
	held   bool
	parent uint64
}

func (d *drain) push(it item) {
	if it.isMark() {
		d.w.push(it)
		return
	}
	if d.held {
		d.w.push(d.ret)
	}
	d.ret, d.held = it, true
}

func (d *drain) pop() (item, bool) {
	if d.held {
		d.held = false
		return d.ret, true
	}
	return d.w.pop()
}

// take moves o's items onto the list, under a held return put back first.
func (d *drain) take(o *wave) {
	if d.held {
		d.w.push(d.ret)
		d.held = false
	}
	d.w.take(o)
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
func (s *partSlot) add(it item) {
	if s.draining {
		s.inbox.push(it)
	} else {
		s.list.push(it)
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
// nor a continuation, as a child of execution parent (0: of none).
func (m *Marker) unlockQueue(s *partSlot, dst graph.VertexID, parent uint64) {
	queue := !s.draining && !s.queued && !s.list.empty()
	s.queued = s.queued || queue
	s.mu.Unlock()
	if queue {
		t := continuation(dst)
		t.Parent = parent
		m.mach.Spawn(t)
	}
}

// park puts a root on its partition's list, or on its inbox while another
// PE drains the partition (a stale drain of an earlier phase, say).
func (m *Marker) park(it item) {
	s := &m.parts[m.store.PartitionOf(it.dst)]
	s.mu.Lock()
	s.add(it)
	m.unlockQueue(s, it.dst, 0)
}

// Handle executes a marking task: it puts the task's item, if it carries one,
// on its partition's list and drains the list best-first, up to the budget,
// taking in the marks and returns queued for the partition whenever the list
// runs dry (absorb). What a spent drain leaves stays on the list, for one
// continuation. A task that finds another PE draining the partition (a
// thief's) leaves its item to that drainer and returns at once. Non-marking
// tasks are ignored (the dispatcher routes them to the reduction engine).
func (m *Marker) Handle(pe int, t task.Task) {
	if !t.Kind.IsMarking() {
		return
	}
	// The list belongs to the destination's partition even when a thief
	// executes the task: local means local to the vertices, not to the PE.
	s := &m.parts[m.store.PartitionOf(t.Dst)]
	s.mu.Lock()
	if IsContinuation(t) {
		s.queued = false
	} else {
		s.add(itemOf(t))
	}
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.mu.Unlock()

	w := &s.list
	d := drain{w: w, parent: m.mach.Running(pe)}
	var marks int64
	for left := max(m.budget, 1); ; {
		for ; left > 0; left-- {
			it, ok := d.pop()
			if !ok {
				break
			}
			if it.isMark() {
				m.handleMark(&d, it)
				marks++
			} else {
				m.handleReturn(&d, it)
			}
		}
		if left > 0 && m.absorb(pe, w) { // the list ran dry: nothing is held
			continue
		}
		s.mu.Lock()
		d.take(&s.inbox)
		if left > 0 && !w.empty() { // it was empty: drain what arrived
			s.mu.Unlock()
			continue
		}
		s.draining = false
		m.unlockQueue(s, t.Dst, d.parent)
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
// queued, since its partition's flag counts it. The machine's execution
// record lists each task taken in, on pe, the PE running the drain.
func (m *Marker) absorb(pe int, w *wave) bool {
	p := w.part
	if m.mach.Pool(p).BandLens()[task.BandMarking] == 0 {
		return false
	}
	m.mach.Expunge(p, func(t task.Task) bool {
		if !t.Kind.IsMarking() || IsContinuation(t) || m.store.PartitionOf(t.Dst) != p {
			return false // a stolen task of another partition stays put
		}
		if m.absorbed != nil && !m.absorbed(t) {
			return false
		}
		m.mach.NoteAbsorb(pe, t)
		w.push(itemOf(t))
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
		s.list.each(func(it item) { fn(it.task()) })
		s.mu.Unlock()
	}
}

// handleMark is mark2 of Figure 5-1 (context R) and mark3 of Figure 5-3
// (context T). mark1 of Figure 4-1 is the degenerate case with a single
// priority.
func (m *Marker) handleMark(d *drain, it item) {
	c := it.ctx()
	st := &m.ctxs[c]
	epoch := st.epoch.Load()
	if it.epoch() != epoch {
		st.staleDropped.Add(1)
		return
	}
	v := m.store.Vertex(it.dst)
	if v == nil {
		m.spawnReturn(d, c, it.dst, it.src, epoch)
		return
	}

	v.Lock()
	mc := v.CtxOf(c)
	switch mc.StateAt(epoch) {
	case graph.Unmarked:
		m.modifyLocked(d, v, c, epoch, it.src, it.prior())
	default:
		if c == graph.CtxT || it.prior() <= mc.Prior {
			// Already (being) marked at sufficient priority: just release
			// our parent.
			v.Unlock()
			m.spawnReturn(d, c, it.dst, it.src, epoch)
			return
		}
		// Re-mark at the higher priority (Figure 5-1): if v is transient,
		// release the old marking-tree parent first. The order of a
		// partition's list exists to make this rare.
		st.upgrades.Add(1)
		if mc.State == graph.Transient {
			old := mc.MtPar
			m.spawnReturn(d, c, it.dst, old, epoch)
		}
		m.modifyLocked(d, v, c, epoch, it.src, it.prior())
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
func (m *Marker) modifyLocked(d *drain, v *graph.Vertex, c graph.Ctx, epoch uint64, par graph.VertexID, prior uint8) {
	mc := v.CtxOf(c)
	mc.Touch(epoch, par, prior)

	if c == graph.CtxR {
		for i, a := range v.Args() {
			if m.faultDropsMark(v.ID, a, epoch) {
				continue
			}
			childPrior := min(prior, v.ReqKindAt(i).Priority())
			m.spawnMark(d, c, v.ID, a, childPrior, epoch)
			mc.MtCnt++
		}
	} else {
		var buf [taskChildrenInline]graph.VertexID
		for _, a := range v.TaskChildren(buf[:0]) {
			if m.faultDropsMark(v.ID, a, epoch) {
				continue
			}
			m.spawnMark(d, c, v.ID, a, 0, epoch)
			mc.MtCnt++
		}
	}
	if mc.MtCnt == 0 {
		mc.State = graph.Marked
		m.spawnReturn(d, c, v.ID, par, epoch)
	}
}

// handleReturn is return1 of Figure 4-1.
func (m *Marker) handleReturn(d *drain, it item) {
	c := it.ctx()
	st := &m.ctxs[c]
	epoch := st.epoch.Load()
	if it.epoch() != epoch {
		st.staleDropped.Add(1)
		return
	}
	if it.dst == graph.NilVertex {
		m.rootReturn(c)
		return
	}
	v := m.store.Vertex(it.dst)
	if v == nil {
		return
	}
	v.Lock()
	mc := v.CtxOf(c)
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
		m.spawnReturn(d, c, it.dst, par, epoch)
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

// spawn routes a marking item: onto the drain when there is one, the budget
// is not 0 and the destination is in its partition (rootpar is everywhere),
// and into the destination's pool as a task otherwise — the cut arc, and
// every cooperating mutator, which runs outside any drain.
func (m *Marker) spawn(d *drain, it item) {
	if d != nil && m.budget > 0 && (it.dst == graph.NilVertex || m.store.PartitionOf(it.dst) == d.w.part) {
		d.push(it)
		return
	}
	t := it.task()
	if d != nil {
		t.Parent = d.parent
	}
	m.mach.Spawn(t)
}

// spawnMark issues a mark.
func (m *Marker) spawnMark(d *drain, c graph.Ctx, par, dst graph.VertexID, prior uint8, epoch uint64) {
	m.spawn(d, markItem(c, par, dst, prior, epoch))
}

// spawnReturn issues a return to the marking-tree parent par (from vertex
// from, for diagnostics).
func (m *Marker) spawnReturn(d *drain, c graph.Ctx, from, par graph.VertexID, epoch uint64) {
	m.spawn(d, returnItem(c, from, par, epoch))
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
