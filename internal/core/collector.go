package core

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// CollectorConfig parameterizes the endless mark/restructure cycles of §4.
type CollectorConfig struct {
	// Root is the distinguished root vertex of the computation; M_R marks
	// from it with priority 3.
	Root graph.VertexID
	// MTEvery runs the M_T (deadlock-detection) phase on every k-th cycle;
	// 0 disables M_T entirely ("in a system where deadlock is of no
	// concern, M_T may be eliminated altogether", §6). 1 runs it every
	// cycle.
	MTEvery int
	// OnDeadlock, if set, is called with the vertices newly identified as
	// deadlocked (members of DL'_v = R'_v − T').
	OnDeadlock func([]graph.VertexID)
	// Recorder, if set, observes the collector's nondeterministic decisions
	// (which marking cycles start with which roots, and when restructuring
	// runs) so a schedule recorder can log them for deterministic replay.
	Recorder CycleRecorder
	// AfterCycle, if set, is called with each cycle's report after the cycle
	// fully completes. In deterministic mode this is a safe point: no task
	// is mid-execution and no marking phase is active, so an invariant
	// checker may sweep the whole graph here.
	AfterCycle func(CycleReport)
	// AfterPhase, if set, is called immediately after a marking phase
	// completes, before anything else runs. This is the only point where
	// that context's marked closure is exact: cooperative marking stops at
	// completion, and later phases of the same cycle legally rewire edges
	// (most visibly for M_T, which runs before the whole M_R phase).
	AfterPhase func(ctx graph.Ctx)
	// Obs, when non-nil, receives one record per phase (M_T, M_R,
	// restructure — the intervals trace analysis blames overlapping
	// execution to), the sweep and cycle intervals around them, cycle and
	// verdict events for the flight recorder, and the cycle-end hook
	// (CycleEnd). All calls are nil-safe no-ops when unset.
	Obs *obs.Obs
}

// CycleRecorder observes cycle-level scheduling decisions. The M_T root set
// is a snapshot of the task pools and therefore schedule-dependent; replay
// must reuse the recorded roots rather than recompute them.
type CycleRecorder interface {
	// CycleStart fires immediately before a marking phase begins, with the
	// exact root set the phase will use. roots is the collector's buffer,
	// rewritten by the next cycle: copy what must outlive the call.
	CycleStart(ctx graph.Ctx, roots []Root)
	// RestructureStart fires immediately before the restructuring phase.
	RestructureStart(mtRan bool)
}

// CycleReport summarizes one mark/restructure cycle.
type CycleReport struct {
	// Cycle is the 1-based cycle number.
	Cycle int64
	// MTRan reports whether the M_T phase executed this cycle.
	MTRan bool
	// Completed is false if the deterministic machine quiesced before a
	// marking phase finished; such a cycle reclaims and reports nothing.
	Completed bool
	// Reclaimed is the number of garbage vertices returned to F.
	Reclaimed int
	// Deadlocked lists the vertices identified as deadlocked this cycle.
	Deadlocked []graph.VertexID
	// Expunged is the number of irrelevant tasks deleted from the pools.
	Expunged int
	// Reprioritized is the number of tasks whose priority band changed.
	Reprioritized int
	// Confirmed and Quiescent are the Verdict the cycle's close read, before
	// another cycle could start. An evaluation is judged by them.
	Confirmed int
	Quiescent bool
}

// Collector drives the endless cycle: (occasionally M_T, then) M_R, then
// the restructuring phase that returns garbage to F, expunges irrelevant
// tasks, reports deadlocked vertices, and reprioritizes the task pools.
type Collector struct {
	store    *graph.Store
	marker   *Marker
	mach     *sched.Machine
	counters *metrics.Counters
	cfg      CollectorConfig

	// pauseMu serializes whole cycles against harness critical sections
	// (Pause/Resume); RunCycle holds it for the cycle's duration.
	pauseMu sync.Mutex
	stopped bool // set by Stop, under pauseMu: no cycle runs after it

	mu     sync.Mutex
	cycleN int64
	// pin is a second M_R root (NilVertex: none), marked at reserve priority:
	// what it reaches is retained whatever SetRoot does, without becoming
	// vital work or a deadlock candidate on its account.
	pin        graph.VertexID
	lastTEpoch uint64 // T epoch of the most recent M_T run

	// Two-phase deadlock verdict state. An M_T cycle's DL'_v computation
	// yields candidates, which go to pending with a sched.Watch armed over
	// them; the next M_T cycle confirms a candidate into deadSet only if it
	// was re-detected and no reduction activity touched the pending set in
	// between. deadSet therefore holds only confirmed verdicts.
	deadSet      map[graph.VertexID]bool
	pending      map[graph.VertexID]bool
	watch        *sched.Watch
	verdictEpoch uint64 // advances whenever deadSet changes

	// Per-cycle bookkeeping, kept from cycle to cycle so a warm collector
	// does not ask the allocator for it again. pauseMu serializes cycles, so
	// one set suffices. The sweep's garbage is kept as ids, not a hash set:
	// a cycle pays per vertex, not per hash probe.
	rRoots     []Root                   // M_R's root set
	tRoots     []Root                   // M_T's root set (taskRoots)
	garbageIDs []graph.VertexID         // this cycle's sweep, ascending: GAR, searched by the expunge
	abandoned  []request                // garbage vertices' pending requests
	destPrior  map[graph.VertexID]uint8 // marked priority of queued demands' destinations

	// The collection loop's trigger (Start, RunDue): due is the execution
	// count at which its next cycle is due, zero on a collector without a
	// loop; interval is what each cycle adds to it. due is written under
	// pauseMu.
	due      atomic.Uint64
	interval uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCollector builds a collector. counters may be nil.
func NewCollector(store *graph.Store, marker *Marker, mach *sched.Machine, counters *metrics.Counters, cfg CollectorConfig) *Collector {
	return &Collector{
		store:    store,
		marker:   marker,
		mach:     mach,
		counters: counters,
		cfg:      cfg,
		deadSet:  make(map[graph.VertexID]bool),
		pending:  make(map[graph.VertexID]bool),

		destPrior: make(map[graph.VertexID]uint8),
	}
}

// contains reports whether id is in ids, which is ascending.
func contains(ids []graph.VertexID, id graph.VertexID) bool {
	_, found := slices.BinarySearch(ids, id)
	return found
}

// SetRoot changes the computation root (used by harnesses that rebuild the
// graph between runs).
func (c *Collector) SetRoot(root graph.VertexID) {
	c.mu.Lock()
	c.cfg.Root = root
	c.mu.Unlock()
}

// Pin makes id a second root of every following M_R cycle, until the next
// Pin (NilVertex unpins). A harness that walks a structure by re-rooting at
// its parts pins the whole, or a cycle during one part's evaluation sweeps
// the parts not yet visited.
func (c *Collector) Pin(id graph.VertexID) {
	c.mu.Lock()
	c.pin = id
	c.mu.Unlock()
}

// Pause blocks until any in-progress cycle completes and keeps new cycles
// from starting until Resume. Harnesses evaluating several programs on one
// live machine use it to make a compile + SetRoot sequence atomic with
// respect to the concurrent collection loop: without the fence, a cycle
// rooted at the previous program can start mid-compile and sweep the fresh,
// not-yet-rooted graph as garbage.
func (c *Collector) Pause() { c.pauseMu.Lock() }

// Resume releases a Pause.
func (c *Collector) Resume() { c.pauseMu.Unlock() }

// Root returns the current computation root.
func (c *Collector) Root() graph.VertexID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Root
}

// Cycles returns the number of completed cycles.
func (c *Collector) Cycles() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cycleN
}

// Marker returns the marker the collector drives.
func (c *Collector) Marker() *Marker { return c.marker }

// Forget removes vertices from the deadlock verdict record, both confirmed
// and pending. It exists for footnote 5's is-bottom recovery, which
// deliberately violates reduction axiom 4: a resolved probe produces a
// value after all, so it must not remain recorded (nor re-reported) as
// deadlocked.
func (c *Collector) Forget(ids []graph.VertexID) {
	c.mu.Lock()
	for _, id := range ids {
		c.dropVerdictLocked(id)
	}
	c.mu.Unlock()
}

// dropVerdictLocked removes id from the verdict record, confirmed and
// pending. Caller holds c.mu.
func (c *Collector) dropVerdictLocked(id graph.VertexID) {
	if c.deadSet[id] {
		delete(c.deadSet, id)
		c.verdictEpoch++
	}
	delete(c.pending, id)
}

// Deadlocked returns the confirmed-deadlocked set: vertices whose verdict
// survived a full M_T cycle untouched (deadlock is stable, reduction axiom 4,
// so a genuine verdict always confirms). Ascending — what a seeded machine
// reports must not depend on map iteration.
func (c *Collector) Deadlocked() []graph.VertexID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(maps.Keys(c.deadSet))
}

// PendingDeadlocked returns, ascending, the candidate vertices detected by
// the most recent M_T cycle that have not yet been confirmed (or retracted)
// by a subsequent one.
func (c *Collector) PendingDeadlocked() []graph.VertexID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Sorted(maps.Keys(c.pending))
}

// VerdictEpoch returns a counter that advances every time the confirmed
// verdict set changes (confirmation, retraction of a confirmed entry via a
// sweep, or Forget). Callers can use an unchanged epoch across a pair of
// reads to know they observed one consistent verdict.
func (c *Collector) VerdictEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.verdictEpoch
}

// Verdict reads the confirmed-deadlocked vertex count and whether no task is
// queued, in transit or executing as one observation: both under the verdict
// lock every confirmation holds, so a caller can never pair a stale verdict
// with a later quiescence (the TOCTOU the old Deadlocked()/Inflight() call
// pair allowed). The verdict is terminal when the count is positive on a
// quiescent machine.
func (c *Collector) Verdict() (confirmed int, quiescent bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deadSet), c.mach.Inflight() == 0
}

// taskRoots enumerates the marking roots for M_T: the source and
// destination of every reduction task queued in any pool, in transit
// through the inter-PE fabric, or currently executing. This realizes the
// virtual troot whose args are the taskroot_i vertices of §5.2; including
// in-transit tasks keeps the snapshot exhaustive when spawned work can sit
// in an outbox or on the wire, so a vertex awaited only by an undelivered
// message is never misreported as deadlocked. The returned slice is the
// collector's own and is overwritten by the next M_T cycle.
func (c *Collector) taskRoots() []Root {
	roots := c.tRoots[:0]
	add := func(t task.Task) {
		if !t.Kind.IsReduction() {
			return
		}
		if t.Src != graph.NilVertex {
			roots = append(roots, Root{ID: t.Src})
		}
		if t.Dst != graph.NilVertex {
			roots = append(roots, Root{ID: t.Dst})
		}
	}
	// Scan order follows the direction tasks move — fabric → pool → PE
	// slot — so a task migrating between custody domains mid-snapshot is
	// seen in at least one of them: a task that left the fabric before the
	// fabric scan is already queued when the pools are scanned, and a task
	// popped after the pool scan is published in its PE's current slot
	// under the pool lock (sched's pop-time publish) before the pop
	// completes. EachQueued, not pool-by-pool Each: with work stealing on,
	// only the all-locks-held scan is atomic against cross-pool movement
	// (see sched.Machine.EachQueued).
	c.mach.EachInTransit(add)
	c.mach.EachQueued(add)
	c.mach.EachCurrent(add)
	// Sorted and made unique: each endpoint once, in id order. A root's
	// priority is zero here, so equal ids make equal roots.
	slices.SortFunc(roots, func(a, b Root) int { return cmp.Compare(a.ID, b.ID) })
	roots = slices.Compact(roots)
	c.tRoots = roots
	return roots
}

// mtDue reports whether cycle n (1-based) should run M_T.
func (c *Collector) mtDue(n int64) bool {
	return c.cfg.MTEvery > 0 && n%int64(c.cfg.MTEvery) == 0
}

// RunCycle performs one full cycle, the same sequence in every mode and the
// paper's: M_T if it is due, then M_R, then restructuring. M_T completes
// before M_R starts — a premise of Theorem 2 (DESIGN §1). Only waitPhase
// knows how the machine is driven.
//
// A stopped collector runs none and returns a zero report: the machine under
// it is being stopped, and a phase whose marks are abandoned never finishes.
func (c *Collector) RunCycle() CycleReport {
	c.pauseMu.Lock()
	defer c.pauseMu.Unlock()
	return c.runCycle()
}

// runCycle is RunCycle under pauseMu, which the caller holds.
func (c *Collector) runCycle() CycleReport {
	if c.stopped {
		return CycleReport{}
	}

	c.mu.Lock()
	c.cycleN++
	rep := CycleReport{Cycle: c.cycleN, Completed: true}
	root, pin := c.cfg.Root, c.pin
	c.mu.Unlock()

	began := c.cfg.Obs.Now()
	c.cfg.Obs.Event(obs.TIDCollector, "cycle.start", uint64(root), 0, "")

	rRoots := append(c.rRoots[:0], Root{ID: root, Prior: graph.PriorVital})
	if pin != graph.NilVertex && pin != root {
		rRoots = append(rRoots, Root{ID: pin, Prior: graph.PriorReserve})
	}
	c.rRoots = rRoots

	if c.mtDue(rep.Cycle) {
		c.runPhase(graph.CtxT, nil, &rep)
		rep.MTRan = rep.Completed
	}
	if rep.Completed {
		c.runPhase(graph.CtxR, rRoots, &rep)
	}
	c.closeCycle(&rep, began, root)
	return rep
}

// phaseSpan names a marking phase's obs interval.
var phaseSpan = [...]string{graph.CtxR: "M_R", graph.CtxT: "M_T"}

// runPhase runs one marking phase of a live cycle to completion (nil roots:
// see openPhase) and hands AfterPhase the context while its marked closure is
// still exact.
func (c *Collector) runPhase(ctx graph.Ctx, roots []Root, rep *CycleReport) {
	o := c.cfg.Obs
	began := o.Now()
	done, n := c.openPhase(ctx, roots)
	rep.Completed = c.waitPhase(ctx, done)
	o.Span(phaseSpan[ctx], obs.CatGC, obs.TIDCollector, began, int64(n))
	if rep.Completed && c.cfg.AfterPhase != nil {
		c.cfg.AfterPhase(ctx)
	}
}

// openPhase is the phase-opening half of a cycle, the one a live cycle and a
// replayed one share: log the phase, activate the context, seed its roots.
// Nil roots ask for the live M_T's, a snapshot of the task pools, which can
// only be taken — and so logged — once the context is active: reduction
// activity concurrent with the snapshot must be covered by the cooperative
// hooks rather than silently missed (see Marker.BeginCycle); in deterministic
// mode nothing executes in between. Roots known beforehand are logged before
// the activation: a task logged ahead of the phase must not have seen it
// active, or the replay, which runs the log in order, lacks the marks that
// task's cooperation spawned. It returns the phase's done channel and the
// number of roots it was seeded with.
func (c *Collector) openPhase(ctx graph.Ctx, roots []Root) (<-chan struct{}, int) {
	if roots != nil {
		c.logPhase(ctx, roots)
	}
	done := c.marker.BeginCycle(ctx)
	if roots == nil {
		roots = c.taskRoots()
		c.logPhase(ctx, roots)
	}
	c.marker.SeedRoots(ctx, roots)
	if ctx == graph.CtxT {
		// What restructure tests T marks against. A context's epoch only
		// advances at its next BeginCycle, so it can be read already.
		c.mu.Lock()
		c.lastTEpoch = c.marker.Epoch(graph.CtxT)
		c.mu.Unlock()
	}
	return done, len(roots)
}

func (c *Collector) logPhase(ctx graph.Ctx, roots []Root) {
	if c.cfg.Recorder != nil {
		c.cfg.Recorder.CycleStart(ctx, roots)
	}
}

// closeCycle is the cycle-closing half, shared likewise: restructure a
// completed cycle and count it, emit the cycle's obs records, report it.
func (c *Collector) closeCycle(rep *CycleReport, began int64, root graph.VertexID) {
	o := c.cfg.Obs
	if rep.Completed {
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.RestructureStart(rep.MTRan)
		}
		phaseStart := o.Now()
		c.restructure(rep)
		o.Span("restructure", obs.CatGC, obs.TIDCollector, phaseStart, int64(rep.Reclaimed))
		if c.counters != nil {
			c.counters.Cycles.Add(1)
			if rep.MTRan {
				c.counters.MTRuns.Add(1)
			}
		}
	}
	o.Span("cycle", obs.CatCollector, obs.TIDCollector, began, rep.Cycle)
	if o != nil {
		o.Event(obs.TIDCollector, "cycle.end", uint64(root), 0,
			fmt.Sprintf("reclaimed=%d expunged=%d reprio=%d deadlocked=%d",
				rep.Reclaimed, rep.Expunged, rep.Reprioritized, len(rep.Deadlocked)))
		o.CycleEnd()
	}
	rep.Confirmed, rep.Quiescent = c.Verdict()
	if c.cfg.AfterCycle != nil {
		c.cfg.AfterCycle(*rep)
	}
}

// ReplayCycleStart opens a marking phase with an explicitly recorded root
// set, for schedule replay. Pumping the scheduler is left to the replayer,
// which executes the phase's tasks in recorded order.
func (c *Collector) ReplayCycleStart(ctx graph.Ctx, roots []Root) {
	if roots == nil {
		roots = []Root{} // a recorded phase without roots, not a request for a snapshot
	}
	c.openPhase(ctx, roots)
}

// ReplayRestructure closes a cycle at a recorded position in the schedule.
// mtRan is the cycle's recorded M_T flag; it gates deadlock detection exactly
// as in the live run.
func (c *Collector) ReplayRestructure(mtRan bool) CycleReport {
	c.mu.Lock()
	c.cycleN++
	rep := CycleReport{Cycle: c.cycleN, MTRan: mtRan, Completed: true}
	root := c.cfg.Root
	c.mu.Unlock()
	c.closeCycle(&rep, c.cfg.Obs.Now(), root)
	return rep
}

// waitPhase waits for a marking phase to finish — pumping the seeded
// scheduler, or blocking while the PEs run — and is the one place the
// collector asks which machine it is on. It reports whether the phase
// finished: a seeded machine can fall quiescent first, when a mark or a
// return was lost.
func (c *Collector) waitPhase(ctx graph.Ctx, done <-chan struct{}) bool {
	if c.mach.Mode() == sched.Parallel {
		<-done
		return true
	}
	c.mach.RunUntil(func() bool { return c.marker.Done(ctx) }, 0)
	return c.marker.Done(ctx)
}

// request is one pending request of a vertex: requester awaits child's value.
type request struct{ requester, child graph.VertexID }

// restructure is the restructuring phase: sweep garbage to F, detect
// deadlocked vertices, expunge irrelevant tasks, and reprioritize the task
// pools from the marked priorities. It is one visit per vertex in use: the
// sweep retires a garbage vertex where it finds it (Store.Retire), and no
// garbage vertex goes into a hash map (only the few queued demands'
// destinations do). The expunge searches this cycle's garbage ids, so every
// task destined to a vertex freed this cycle is deleted in the same cycle —
// the invariant that makes freeing safe at all — and only then do the
// retired ids reach F (Store.PublishRetired), so none is allocated again
// while a task names it.
func (c *Collector) restructure(rep *CycleReport) {
	epochR := c.marker.Epoch(graph.CtxR)
	c.mu.Lock()
	epochT := c.lastTEpoch
	c.mu.Unlock()

	garbageIDs, abandoned := c.garbageIDs[:0], c.abandoned[:0]
	var dead []graph.VertexID

	o := c.cfg.Obs
	sweepStart := o.Now()
	// The closure runs once per vertex in use, in ascending id order, so
	// garbageIDs and dead come out sorted. It unlocks explicitly on each path
	// rather than paying a defer per vertex.
	c.store.ForEach(func(v *graph.Vertex) {
		v.Lock()
		switch {
		case v.Kind == graph.KindFree:
		case v.Red.AllocEpoch >= epochR:
			// Allocated during this cycle: from F, not garbage (axiom 1).
		case v.RCtx.StateAt(epochR) == graph.Unmarked:
			garbageIDs = append(garbageIDs, v.ID)
			for i, a := range v.Args() {
				if v.ReqKindAt(i) != graph.ReqNone {
					abandoned = append(abandoned, request{v.ID, a})
				}
			}
			c.store.Retire(v)
		case rep.MTRan &&
			v.RCtx.PriorAt(epochR) == graph.PriorVital &&
			v.Red.AllocEpochT < epochT &&
			v.TCtx.StateAt(epochT) == graph.Unmarked &&
			!v.IsValueLocked():
			// DL'_v = R'_v − T', excluding vertices that already hold
			// their value (they await nothing; after a computation
			// completes and the pools drain, T is empty but nothing is
			// deadlocked).
			dead = append(dead, v.ID)
		}
		v.Unlock()
	})
	c.garbageIDs, c.abandoned = garbageIDs, abandoned // keep what append grew
	o.Span("sweep", obs.CatCollector, obs.TIDCollector, sweepStart, int64(len(garbageIDs)))

	// A garbage vertex's pending requests go with it: each child it awaits
	// forgets it as a requester. A child that survives the sweep (another
	// vertex needs its value, or it was allocated during the cycle) would
	// otherwise keep a backlink to a freed vertex, which its next M_T would
	// trace and its completion would answer with a Result to whatever the id
	// is allocated to next. A garbage vertex awaits a value when a requester
	// took the value through its indirection before it arrived (resolveWHNF
	// follows an indirection that is still evaluating) and dropped it.
	for _, r := range abandoned {
		if w := c.store.Vertex(r.child); w != nil {
			w.Lock()
			w.RemoveRequester(r.requester)
			w.Unlock()
		}
	}

	// Expunge irrelevant tasks: every task whose destination is garbage
	// (Property 6: IRR = {<s,d> | d ∈ GAR}). GAR was computed above, as
	// ascending ids, so the pool predicate is a binary search that needs no
	// vertex lock (avoiding pool→vertex lock nesting).
	irrelevant := func(t task.Task) bool {
		return t.Kind.IsReduction() && contains(garbageIDs, t.Dst)
	}
	for i := 0; i < c.mach.PEs(); i++ {
		rep.Expunged += c.mach.Expunge(i, irrelevant)
	}
	// An undelivered message to a reclaimed vertex is equally irrelevant:
	// delete it from the fabric so it neither executes nor holds up
	// quiescence.
	rep.Expunged += c.mach.ExpungeInTransit(irrelevant)

	// Reprioritize surviving demand tasks from the priority their
	// destination was marked with (§3.2 / §5): 3→vital, 2→eager,
	// 1→reserve. Destination priorities are pre-read into a map, again to
	// avoid nested locking from inside the pool.
	destPrior := c.destPrior
	clear(destPrior)
	for i := 0; i < c.mach.PEs(); i++ {
		c.mach.Pool(i).Each(func(t task.Task) {
			if t.Kind == task.Demand {
				destPrior[t.Dst] = 0
			}
		})
	}
	for id := range destPrior {
		if v := c.store.Vertex(id); v != nil {
			v.Lock()
			destPrior[id] = v.RCtx.PriorAt(epochR)
			v.Unlock()
		}
	}
	for i := 0; i < c.mach.PEs(); i++ {
		rep.Reprioritized += c.mach.Pool(i).Reprioritize(func(t task.Task) graph.ReqKind {
			switch destPrior[t.Dst] {
			case graph.PriorVital:
				return graph.ReqVital
			case graph.PriorEager:
				return graph.ReqEager
			case graph.PriorReserve:
				return graph.ReqNone
			default:
				return t.Req // unmarked (e.g. allocated mid-cycle): keep
			}
		})
	}

	// The tasks that named the garbage are gone: its retired ids go to F.
	c.store.PublishRetired()
	rep.Reclaimed = len(garbageIDs)

	// Swept vertices leave the verdict record: a reclaimed ID can be reused by
	// an unrelated allocation (a root switch or is-bottom recovery can make a
	// once-deadlocked knot garbage), and a stale record under a recycled ID
	// would poison both the facade's deadlock check and the checker's
	// confirmed-verdict oracle. Only a collector holding verdicts looks.
	if len(garbageIDs) > 0 {
		c.mu.Lock()
		if len(c.deadSet) > 0 || len(c.pending) > 0 {
			for _, id := range garbageIDs {
				c.dropVerdictLocked(id)
			}
		}
		c.mu.Unlock()
	}

	// Two-phase deadlock verdict. This cycle's candidate set DL'_v feeds
	// the report but is not yet believed: in parallel mode M_T's taskpool
	// snapshot races the PEs, so a reduction that re-animates a candidate
	// can hide between snapshot and verdict. A candidate becomes a
	// confirmed verdict only after it survives a full further M_T cycle —
	// still detected, with no reduction activity touching the pending set
	// (the armed sched.Watch) in between. A genuine deadlock always
	// survives, because deadlock is stable (reduction axiom 4); a racy
	// misdetection is either not re-detected (the next snapshot sees the
	// missed task or the delivered value) or touched, and is retracted.
	if rep.MTRan {
		rep.Deadlocked = dead
		confirmed, retracted := c.judgeVerdicts(dead)
		if retracted > 0 {
			if c.counters != nil {
				c.counters.DeadlockRetracted.Add(int64(retracted))
			}
			if o != nil {
				o.Event(obs.TIDCollector, "deadlock.retracted", 0, 0,
					fmt.Sprintf("n=%d", retracted))
			}
		}
		if len(confirmed) > 0 {
			if c.counters != nil {
				c.counters.DeadlockedFound.Add(int64(len(confirmed)))
			}
			if o != nil {
				o.Event(obs.TIDCollector, "deadlock.found", uint64(confirmed[0]), 0,
					fmt.Sprintf("n=%d", len(confirmed)))
			}
			if c.cfg.OnDeadlock != nil {
				c.cfg.OnDeadlock(confirmed)
			}
		} else if len(dead) > 0 && o != nil {
			o.Event(obs.TIDCollector, "deadlock.pending", uint64(dead[0]), 0,
				fmt.Sprintf("n=%d", len(dead)))
		}
	}

	if c.counters != nil {
		c.counters.Reclaimed.Add(int64(rep.Reclaimed))
		c.counters.Expunged.Add(int64(rep.Expunged))
		c.counters.Reprioritized.Add(int64(rep.Reprioritized))
	}
}

// judgeVerdicts is the two-phase confirmation pass, run after every M_T
// cycle's restructure. dead is this cycle's candidate set DL'_v. A pending
// candidate from the previous M_T cycle is confirmed if it was re-detected
// with the watch untouched; it is retracted if it was not re-detected (the
// fresh snapshot saw the task or value the racy one missed); if it was
// touched but still detected, it stays a candidate for another cycle under
// a fresh watch. The surviving candidates become the new pending set.
// dead is ascending, as the sweep visits. Returns the newly confirmed
// vertices (sorted) and the retraction count.
func (c *Collector) judgeVerdicts(dead []graph.VertexID) (confirmed []graph.VertexID, retracted int) {
	c.mu.Lock()
	clean := c.watch != nil && !c.watch.Touched()
	for id := range c.pending {
		detected := contains(dead, id)
		switch {
		case detected && clean:
			if !c.deadSet[id] {
				c.deadSet[id] = true
				c.verdictEpoch++
				confirmed = append(confirmed, id)
			}
		case !detected:
			retracted++
		}
	}
	clear(c.pending)
	c.watch = nil
	for _, id := range dead {
		if !c.deadSet[id] {
			c.pending[id] = true
		}
	}
	if len(c.pending) > 0 {
		c.watch = sched.NewWatch(slices.Collect(maps.Keys(c.pending)))
	}
	c.mach.SetWatch(c.watch)
	c.mu.Unlock()
	slices.Sort(confirmed)
	return confirmed, retracted
}

// Start launches the collection loop of a parallel machine: a cycle after
// every interval steps (sched.Machine.Steps) since the loop's last one,
// whatever they were — reduction, or marking the cycles an evaluation runs
// itself — but its own cycles' marks and returns. The count starts here, not
// when the loop's goroutine first runs, and what the PEs reduce while a cycle
// of the loop runs counts toward the next. A machine that executes nothing runs no
// cycle, at any interval; one that runs on after its evaluation returned,
// speculation or a runaway, is collected as it goes. The loop counts its
// own marks on the collector's counters, which must not be nil.
func (c *Collector) Start(interval int) {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	stop := c.stop
	c.mu.Unlock()

	c.interval = uint64(interval)
	c.due.Store(c.mach.Steps() + c.interval)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for c.mach.WaitSteps(c.due.Load(), stop) {
			c.RunDue()
		}
	}()
}

// RunDue runs the collection loop's cycle if it is due, on the caller's
// goroutine, and waits out one in progress. The loop calls it when its count
// is reached; an evaluation calls it as it returns its value, so a cycle its
// tasks made due has run by then, however long the loop's goroutine waits
// for a CPU. Whoever runs the cycle moves the count on, and the other finds
// nothing due. Without a loop (Start) it does nothing.
func (c *Collector) RunDue() {
	c.pauseMu.Lock()
	defer c.pauseMu.Unlock()
	due := c.due.Load()
	if due == 0 || c.mach.Steps() < due {
		return
	}
	base, own := c.mach.Steps(), c.markExecutions()
	c.runCycle()
	c.due.Store(base + c.interval + c.markExecutions() - own)
}

// markExecutions counts the marks and returns executed so far: what a cycle
// of the collection loop executes for itself, and must not count toward the
// next.
func (c *Collector) markExecutions() uint64 {
	return uint64(c.counters.MarkTasks.Load() + c.counters.ReturnTasks.Load())
}

// Stop waits out the cycle in progress, if any, and ends the collection loop;
// from then on RunCycle runs nothing. It must be called before the machine
// is stopped, or that cycle's phase never finishes.
func (c *Collector) Stop() {
	c.pauseMu.Lock()
	c.stopped = true
	c.pauseMu.Unlock()
	c.mu.Lock()
	stop := c.stop
	c.stop = nil
	c.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	c.wg.Wait()
}
