package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

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
	// Pace, in parallel mode, is the least idle delay between cycles; the
	// collector idles at least as long as the cycle it just ran took, so it
	// is active at most half of the time. 0 runs cycles back to back.
	Pace time.Duration
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
	// verdict events for the flight recorder, and an end-of-cycle
	// time-series sample. All calls are nil-safe no-ops when unset.
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
	// sweep is the sweep scope the phase will use: 0 for a full-arena sweep,
	// k+1 for an incremental sweep of partition k only. The scope is a
	// scheduling decision (it depends on the cycle's mode and M_T rotation),
	// so replay must reuse the recorded value.
	RestructureStart(mtRan bool, sweep int)
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
	// Steps is the number of deterministic scheduler steps consumed by the
	// marking phases (0 in parallel mode).
	Steps int
	// Sweep is the restructuring phase's sweep scope: 0 for a full-arena
	// sweep, k+1 for an incremental sweep of partition k only.
	Sweep int
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

	mu     sync.Mutex
	cycleN int64
	// pin is a second M_R root (NilVertex: none), marked at reserve priority:
	// what it reaches is retained whatever SetRoot does, without becoming
	// vital work or a deadlock candidate on its account.
	pin        graph.VertexID
	lastTEpoch uint64 // T epoch of the most recent M_T run
	// nextSweep is the partition the next incremental sweep will cover.
	// Parallel-mode cycles without M_T sweep one partition per cycle in
	// rotation, bounding the per-cycle pause; M_T cycles always sweep the
	// full arena because dead-candidate detection and pending-verdict
	// re-detection both need a whole-arena view.
	nextSweep int

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
	// one set suffices.
	rRoots     []Root                  // M_R's root set
	tRoots     []Root                  // M_T's root set (taskRoots)
	tSeen      map[graph.VertexID]bool // taskRoots' endpoint set
	garbage    []*graph.Vertex         // this cycle's sweep
	garbageSet map[graph.VertexID]bool
	destPrior  map[graph.VertexID]uint8 // marked priority of queued demands' destinations

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

		tSeen:      make(map[graph.VertexID]bool),
		garbageSet: make(map[graph.VertexID]bool),
		destPrior:  make(map[graph.VertexID]uint8),
	}
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

// Forget removes vertices from the deadlock verdict record, both confirmed
// and pending. It exists for footnote 5's is-bottom recovery, which
// deliberately violates reduction axiom 4: a resolved probe produces a
// value after all, so it must not remain recorded (nor re-reported) as
// deadlocked.
func (c *Collector) Forget(ids []graph.VertexID) {
	c.mu.Lock()
	for _, id := range ids {
		if c.deadSet[id] {
			delete(c.deadSet, id)
			c.verdictEpoch++
		}
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// sortedIDs lists a verdict set in ascending order: what a seeded machine
// reports must not depend on map iteration.
func sortedIDs(set map[graph.VertexID]bool) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Deadlocked returns the confirmed-deadlocked set, ascending: vertices whose
// verdict survived a full M_T cycle untouched (deadlock is stable, reduction
// axiom 4, so a genuine verdict always confirms).
func (c *Collector) Deadlocked() []graph.VertexID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sortedIDs(c.deadSet)
}

// PendingDeadlocked returns, ascending, the candidate vertices detected by
// the most recent M_T cycle that have not yet been confirmed (or retracted)
// by a subsequent one.
func (c *Collector) PendingDeadlocked() []graph.VertexID {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sortedIDs(c.pending)
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

// TerminalVerdict evaluates the machine's terminal-deadlock condition — at
// least one confirmed-deadlocked vertex AND no task queued, in transit, or
// executing — as one atomic observation: both sides are read under the
// verdict lock that every confirmation holds, so a caller can never pair a
// stale verdict with a later quiescence (the TOCTOU the old
// Deadlocked()/Inflight() call pair allowed). It returns the confirmed
// count and whether the verdict is terminal.
func (c *Collector) TerminalVerdict() (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.deadSet)
	return n, n > 0 && c.mach.Inflight() == 0
}

// DeadlockedCount returns the size of the confirmed-deadlocked set without
// copying it (the gauge the samplers and expositions poll).
func (c *Collector) DeadlockedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deadSet)
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
	seen := c.tSeen
	clear(seen)
	add := func(t task.Task) {
		if !t.Kind.IsReduction() {
			return
		}
		if t.Src != graph.NilVertex {
			seen[t.Src] = true
		}
		if t.Dst != graph.NilVertex {
			seen[t.Dst] = true
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
	for _, t := range c.mach.CurrentTasks() {
		add(t)
	}
	roots := c.tRoots[:0]
	for id := range seen {
		roots = append(roots, Root{ID: id})
	}
	slices.SortFunc(roots, func(a, b Root) int { return cmp.Compare(a.ID, b.ID) })
	c.tRoots = roots
	return roots
}

// mtDue reports whether cycle n (1-based) should run M_T.
func (c *Collector) mtDue(n int64) bool {
	return c.cfg.MTEvery > 0 && n%int64(c.cfg.MTEvery) == 0
}

// RunCycle performs one full cycle. In deterministic mode it pumps the
// scheduler itself (interleaving marking with whatever reduction tasks are
// queued — this is the concurrent-marking execution); in parallel mode it
// blocks on the marker's done channels while the PEs run.
func (c *Collector) RunCycle() CycleReport {
	c.pauseMu.Lock()
	defer c.pauseMu.Unlock()

	c.mu.Lock()
	c.cycleN++
	n := c.cycleN
	root, pin := c.cfg.Root, c.pin
	c.mu.Unlock()

	rep := CycleReport{Cycle: n, Completed: true}
	o := c.cfg.Obs
	cycleStart := o.Now()
	o.Event(obs.TIDCollector, "cycle.start", uint64(root), 0, "")

	rRoots := append(c.rRoots[:0], Root{ID: root, Prior: graph.PriorVital})
	if pin != graph.NilVertex && pin != root {
		rRoots = append(rRoots, Root{ID: pin, Prior: graph.PriorReserve})
	}
	c.rRoots = rRoots
	if c.mtDue(n) && c.mach.Mode() == sched.Parallel {
		// Parallel mode overlaps the two marking phases: the contexts keep
		// disjoint per-vertex marking state (RCtx vs TCtx), so M_T and M_R
		// tasks interleave freely across the PEs and the cycle's marking
		// wall-time is max(M_T, M_R) instead of their sum. The sequential
		// order below is kept for deterministic mode, whose recorded
		// schedules and golden digests assume it.
		phaseStart := o.Now()
		// Activate the cycle before snapshotting the pools, so reduction
		// activity concurrent with the snapshot is covered by the
		// cooperative hooks rather than silently missed (see
		// Marker.BeginCycle).
		doneT := c.marker.BeginCycle(graph.CtxT)
		tRoots := c.taskRoots()
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.CycleStart(graph.CtxT, tRoots)
		}
		c.marker.SeedRoots(graph.CtxT, tRoots)
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.CycleStart(graph.CtxR, rRoots)
		}
		doneR := c.marker.StartCycle(graph.CtxR, rRoots)
		<-doneT
		c.mu.Lock()
		c.lastTEpoch = c.marker.Epoch(graph.CtxT)
		c.mu.Unlock()
		rep.MTRan = true
		o.Span("M_T", obs.CatGC, obs.TIDCollector, phaseStart, int64(len(tRoots)))
		if c.counters != nil {
			c.counters.MTRuns.Add(1)
		}
		if c.cfg.AfterPhase != nil {
			c.cfg.AfterPhase(graph.CtxT)
		}
		<-doneR
		o.Span("M_R", obs.CatGC, obs.TIDCollector, phaseStart, 1)
		if c.cfg.AfterPhase != nil {
			c.cfg.AfterPhase(graph.CtxR)
		}
	} else {
		if c.mtDue(n) {
			phaseStart := o.Now()
			// Activate before snapshotting, as in the overlap branch. In
			// deterministic mode nothing executes between the two halves,
			// so recorded schedules and golden digests are unchanged.
			done := c.marker.BeginCycle(graph.CtxT)
			roots := c.taskRoots()
			if c.cfg.Recorder != nil {
				c.cfg.Recorder.CycleStart(graph.CtxT, roots)
			}
			c.marker.SeedRoots(graph.CtxT, roots)
			rep.Steps += c.waitPhase(graph.CtxT, done, &rep)
			c.mu.Lock()
			c.lastTEpoch = c.marker.Epoch(graph.CtxT)
			c.mu.Unlock()
			rep.MTRan = rep.Completed
			o.Span("M_T", obs.CatGC, obs.TIDCollector, phaseStart, int64(len(roots)))
			if c.counters != nil && rep.MTRan {
				c.counters.MTRuns.Add(1)
			}
			if rep.MTRan && c.cfg.AfterPhase != nil {
				c.cfg.AfterPhase(graph.CtxT)
			}
		}

		if rep.Completed {
			phaseStart := o.Now()
			if c.cfg.Recorder != nil {
				c.cfg.Recorder.CycleStart(graph.CtxR, rRoots)
			}
			done := c.marker.StartCycle(graph.CtxR, rRoots)
			rep.Steps += c.waitPhase(graph.CtxR, done, &rep)
			o.Span("M_R", obs.CatGC, obs.TIDCollector, phaseStart, 1)
			if rep.Completed && c.cfg.AfterPhase != nil {
				c.cfg.AfterPhase(graph.CtxR)
			}
		}
	}

	if rep.Completed {
		rep.Sweep = c.sweepScope(rep.MTRan)
		if c.cfg.Recorder != nil {
			c.cfg.Recorder.RestructureStart(rep.MTRan, rep.Sweep)
		}
		phaseStart := o.Now()
		c.restructure(&rep)
		o.Span("restructure", obs.CatGC, obs.TIDCollector, phaseStart, int64(rep.Reclaimed))
		if c.counters != nil {
			c.counters.Cycles.Add(1)
		}
	}
	o.Span("cycle", obs.CatCollector, obs.TIDCollector, cycleStart, n)
	if o != nil {
		o.Event(obs.TIDCollector, "cycle.end", uint64(root), 0,
			fmt.Sprintf("reclaimed=%d expunged=%d reprio=%d deadlocked=%d",
				rep.Reclaimed, rep.Expunged, rep.Reprioritized, len(rep.Deadlocked)))
		o.SampleNow()
	}
	if c.cfg.AfterCycle != nil {
		c.cfg.AfterCycle(rep)
	}
	return rep
}

// ReplayCycleStart begins a marking phase with an explicitly recorded root
// set, for schedule replay. It performs RunCycle's per-phase bookkeeping
// (including the M_T epoch capture — safe immediately after StartCycle,
// since a context's epoch only advances at the next StartCycle) but leaves
// pumping the scheduler to the replayer, which executes the phase's tasks
// in recorded order.
func (c *Collector) ReplayCycleStart(ctx graph.Ctx, roots []Root) {
	c.marker.StartCycle(ctx, roots)
	if ctx == graph.CtxT {
		c.mu.Lock()
		c.lastTEpoch = c.marker.Epoch(graph.CtxT)
		c.mu.Unlock()
		if c.counters != nil {
			c.counters.MTRuns.Add(1)
		}
	}
}

// sweepScope decides the restructuring phase's sweep scope for a live
// cycle: 0 (full arena) or k+1 (partition k only). Parallel-mode cycles
// without M_T rotate through the partitions one per cycle, so the sweep's
// stop-the-arena work is bounded by one partition slice; M_T cycles and all
// deterministic cycles sweep everything (deadlock detection and golden
// schedules both depend on the full scan).
func (c *Collector) sweepScope(mtRan bool) int {
	if c.mach.Mode() != sched.Parallel || mtRan || c.store.Partitions() < 2 {
		return 0
	}
	c.mu.Lock()
	part := c.nextSweep
	c.nextSweep = (part + 1) % c.store.Partitions()
	c.mu.Unlock()
	return part + 1
}

// ReplayRestructure runs one restructuring phase at a recorded position in
// the schedule. mtRan is the recorded M_T flag for the cycle and sweep the
// recorded sweep scope (0 = full arena, k+1 = partition k); they gate
// deadlock detection and the sweep's coverage exactly as in the live run —
// an incremental sweep replayed as a full one would reclaim garbage cycles
// earlier than the recording did.
func (c *Collector) ReplayRestructure(mtRan bool, sweep int) CycleReport {
	c.mu.Lock()
	c.cycleN++
	rep := CycleReport{Cycle: c.cycleN, MTRan: mtRan, Completed: true, Sweep: sweep}
	c.mu.Unlock()
	c.restructure(&rep)
	if c.counters != nil {
		c.counters.Cycles.Add(1)
	}
	if c.cfg.AfterCycle != nil {
		c.cfg.AfterCycle(rep)
	}
	return rep
}

// waitPhase waits for a marking phase to finish, pumping the deterministic
// scheduler if needed. It returns the deterministic steps consumed.
func (c *Collector) waitPhase(ctx graph.Ctx, done <-chan struct{}, rep *CycleReport) int {
	if c.mach.Mode() == sched.Parallel {
		<-done
		return 0
	}
	steps := c.mach.RunUntil(func() bool { return c.marker.Done(ctx) }, 0)
	if !c.marker.Done(ctx) {
		// Quiescent with the phase unfinished: a mark or return was lost.
		rep.Completed = false
	}
	return steps
}

// restructure is the restructuring phase: sweep garbage to F, detect
// deadlocked vertices, expunge irrelevant tasks, and reprioritize the task
// pools from the marked priorities. rep.Sweep scopes the sweep: 0 scans the
// full arena; k+1 scans only partition k (incremental mode — garbage in
// other partitions is simply collected on a later rotation, which is safe
// because unreachability is stable: nothing can re-reference a vertex no
// path reaches). The expunge below uses this cycle's garbageSet, so every
// task destined to a vertex freed THIS cycle is deleted in the same cycle
// regardless of scope — the invariant that makes freeing safe at all.
func (c *Collector) restructure(rep *CycleReport) {
	epochR := c.marker.Epoch(graph.CtxR)
	c.mu.Lock()
	epochT := c.lastTEpoch
	c.mu.Unlock()

	garbage, garbageSet := c.garbage[:0], c.garbageSet
	clear(garbageSet)
	var dead []graph.VertexID

	o := c.cfg.Obs
	sweepStart := o.Now()
	// The closure runs once per swept slot, most of them free: it unlocks
	// explicitly on each path rather than paying a defer per slot.
	sweep := func(v *graph.Vertex) {
		v.Lock()
		switch {
		case v.Kind == graph.KindFree:
		case v.Red.AllocEpoch >= epochR:
			// Allocated during this cycle: from F, not garbage (axiom 1).
		case v.RCtx.StateAt(epochR) == graph.Unmarked:
			garbage = append(garbage, v)
			garbageSet[v.ID] = true
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
	}
	if rep.Sweep > 0 {
		c.store.ForEachInPartition(rep.Sweep-1, sweep)
	} else {
		c.store.ForEach(sweep)
	}
	c.garbage = garbage // keep what append grew
	o.Span("sweep", obs.CatCollector, obs.TIDCollector, sweepStart, int64(len(garbage)))

	// Expunge irrelevant tasks: every task whose destination is garbage
	// (Property 6: IRR = {<s,d> | d ∈ GAR}). The garbage set was computed
	// above, so the pool predicate needs no vertex locks (avoiding
	// pool→vertex lock nesting).
	irrelevant := func(t task.Task) bool {
		return t.Kind.IsReduction() && garbageSet[t.Dst]
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

	// Return garbage to the free list — batched, one shard lock hold per
	// partition, so a big sweep doesn't serialize against the PEs'
	// allocation fast paths.
	c.store.ReleaseBatch(garbage)
	rep.Reclaimed = len(garbage)

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
		confirmed, retracted := c.judgeVerdicts(dead, garbageSet)
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
	} else if len(garbageSet) > 0 {
		c.purgeVerdicts(garbageSet)
	}

	if c.counters != nil {
		c.counters.Reclaimed.Add(int64(rep.Reclaimed))
		c.counters.Expunged.Add(int64(rep.Expunged))
		c.counters.Reprioritized.Add(int64(rep.Reprioritized))
	}
}

// purgeVerdicts drops swept vertices from the verdict record. A reclaimed
// vertex's ID can be reused by an unrelated allocation (a root switch or
// is-bottom recovery can make a once-deadlocked knot garbage), and a stale
// record under a recycled ID would poison both the facade's deadlock check
// and the checker's confirmed-verdict oracle. Caller must not hold c.mu.
func (c *Collector) purgeVerdicts(garbage map[graph.VertexID]bool) {
	c.mu.Lock()
	for id := range garbage {
		if c.deadSet[id] {
			delete(c.deadSet, id)
			c.verdictEpoch++
		}
		delete(c.pending, id)
	}
	c.mu.Unlock()
}

// judgeVerdicts is the two-phase confirmation pass, run after every M_T
// cycle's restructure. dead is this cycle's candidate set DL'_v. A pending
// candidate from the previous M_T cycle is confirmed if it was re-detected
// with the watch untouched; it is retracted if it was not re-detected (the
// fresh snapshot saw the task or value the racy one missed); if it was
// touched but still detected, it stays a candidate for another cycle under
// a fresh watch. The surviving candidates become the new pending set.
// Returns the newly confirmed vertices (sorted) and the retraction count.
func (c *Collector) judgeVerdicts(dead []graph.VertexID, garbage map[graph.VertexID]bool) (confirmed []graph.VertexID, retracted int) {
	detected := make(map[graph.VertexID]bool, len(dead))
	for _, id := range dead {
		detected[id] = true
	}
	c.mu.Lock()
	for id := range garbage {
		if c.deadSet[id] {
			delete(c.deadSet, id)
			c.verdictEpoch++
		}
		delete(c.pending, id)
	}
	clean := c.watch != nil && !c.watch.Touched()
	for id := range c.pending {
		switch {
		case detected[id] && clean:
			if !c.deadSet[id] {
				c.deadSet[id] = true
				c.verdictEpoch++
				confirmed = append(confirmed, id)
			}
		case !detected[id]:
			retracted++
		}
	}
	next := make(map[graph.VertexID]bool, len(dead))
	for _, id := range dead {
		if !c.deadSet[id] {
			next[id] = true
		}
	}
	c.pending = next
	if len(next) > 0 {
		ids := make([]graph.VertexID, 0, len(next))
		for id := range next {
			ids = append(ids, id)
		}
		c.watch = sched.NewWatch(ids)
	} else {
		c.watch = nil
	}
	c.mach.SetWatch(c.watch)
	c.mu.Unlock()
	sort.Slice(confirmed, func(i, j int) bool { return confirmed[i] < confirmed[j] })
	return confirmed, retracted
}

// Start launches the endless collection loop in parallel mode.
func (c *Collector) Start() {
	c.mu.Lock()
	if c.stop != nil {
		c.mu.Unlock()
		return
	}
	c.stop = make(chan struct{})
	stop := c.stop
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			begin := time.Now()
			c.RunCycle()
			if c.cfg.Pace > 0 {
				// Idle at least as long as the cycle ran. A cycle's marking
				// tasks run on the PEs, in place of reduction: were a cheap
				// cycle followed by the next after a fixed Pace, a busy
				// machine would spend most of its tasks on marking.
				idle := max(c.cfg.Pace, time.Since(begin))
				select {
				case <-stop:
					return
				case <-time.After(idle):
				}
			}
		}
	}()
}

// Stop terminates the collection loop after the current cycle and waits for
// it to exit. It must be called before the machine is stopped (a cycle in
// progress blocks on marking completion).
func (c *Collector) Stop() {
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
