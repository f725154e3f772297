// Package check provides the runtime correctness tooling for the machine:
// an always-on invariant checker that samples the paper's marking
// invariants (Figure 4-2 invariants 1 and 2, plus the mt-cnt accounting of
// §5.4.1) together with machine-level conservation laws, and a schedule
// recorder/replayer that captures a parallel run's execution order and
// re-drives it deterministically so any violation reproduces bit-for-bit.
//
// The checker distinguishes two classes of sample point:
//
//   - Deterministic safe points (between scheduler steps, cycle ends,
//     quiescence): no task is mid-execution, so whole-machine sweeps —
//     inflight conservation and core.CheckInvariants — are exact.
//   - Concurrent sample points (parallel mode): only checks that are sound
//     under concurrent mutation run — per-task band consistency, mt-cnt
//     underflow counters, and (at cycle ends) the marked-closure sweep,
//     which is stable because a completed cycle has no outstanding marking
//     work at its epoch.
//
// Marking-invariant sweeps are gated on an *active* cycle (or a just-
// completed one): between cycles the cooperating mutator legally attaches
// unmarked fresh vertices beneath marked parents, so an ungated sweep would
// report false violations.
package check

import (
	"fmt"
	"sync"

	"dgr/internal/analysis"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// maxViolations caps the retained violation list; once full the checker
// stops sampling (the run is already condemned, and an unbounded list would
// flood memory on a badly broken machine).
const maxViolations = 64

// Checker asserts machine invariants at sample points. All exported fields
// must be set before the machine executes its first task; the methods are
// safe for concurrent use afterwards.
type Checker struct {
	Store    *graph.Store
	Marker   *core.Marker
	Mach     *sched.Machine
	Counters *metrics.Counters // optional: check counters land here
	Obs      *obs.Obs          // optional: check.violation events land here
	// Coll, when set, enables the confirmed-verdict invariant: a vertex the
	// collector has CONFIRMED deadlocked (two-phase verdict) can never reduce
	// again, so it must not be freed, must not hold a value, and must not be
	// task-reachable per the internal/analysis oracle.
	Coll *core.Collector
	// Every samples every k-th task execution via AfterExecute; 0 disables
	// per-execution sampling (cycle-end and quiescence points still run).
	Every uint64
	// Parallel restricts every-execution and cycle-end samples to the
	// checks that are sound under concurrent mutation.
	Parallel bool
	// OnViolation, if set, fires once per report that found violations —
	// after they are recorded — so a flight recorder can dump its ring while
	// the failing state is still fresh. It must not call back into the
	// checker.
	OnViolation func()

	mu         sync.Mutex
	violations []string
}

var bothCtxs = [2]graph.Ctx{graph.CtxR, graph.CtxT}

// AfterExecute is the sched.Config.AfterExecute hook: it samples every
// Every-th task execution. In deterministic mode this point sits between
// scheduler steps, so full sweeps run; in parallel mode only the
// concurrency-safe checks do.
func (c *Checker) AfterExecute(seq uint64, pe int, t task.Task) {
	if c.Every == 0 || (seq+1)%c.Every != 0 || c.capped() {
		return
	}
	var errs []string
	errs = append(errs, c.bandErrs()...)
	errs = append(errs, c.underflowErrs()...)
	if !c.Parallel {
		errs = append(errs, c.conservationErrs()...)
		for _, ctx := range bothCtxs {
			if c.Marker.Active(ctx) {
				for _, e := range core.CheckInvariants(c.Store, c.Marker, c.Mach, ctx) {
					errs = append(errs, e.Error())
				}
			}
		}
	}
	c.report(fmt.Sprintf("execute#%d", seq), errs)
}

// AtCycleEnd is the core.CollectorConfig.AfterCycle hook: it runs after a
// mark/restructure cycle completes. The CtxR marked-closure sweep is sound
// in both modes here — a completed cycle has no outstanding marking work at
// its epoch, and between-cycle mutation only attaches fresh vertices
// (excluded by allocation epoch) or rewires already-marked ones. The CtxT
// closure is deliberately NOT swept here: M_T runs before the whole M_R
// phase of the same cycle, and the reduction tasks M_R's pump interleaves
// legally rewire task-reachability edges once T-cooperation has stopped —
// the T closure is only exact at its phase end (see AtPhaseEnd).
func (c *Checker) AtCycleEnd(rep core.CycleReport) {
	if c.capped() {
		return
	}
	var errs []string
	errs = append(errs, c.bandErrs()...)
	errs = append(errs, c.underflowErrs()...)
	if !c.Parallel {
		errs = append(errs, c.conservationErrs()...)
	}
	if rep.Completed {
		errs = append(errs, c.markedClosureErrs(graph.CtxR)...)
	}
	if !c.Parallel {
		// Deterministic cycle ends sit between scheduler steps, so the
		// oracle's snapshot-plus-taskset reading is exact; in parallel mode
		// the PEs are mutating under the sweep and the same invariant is
		// asserted at the Close-time quiescence point instead.
		errs = append(errs, c.confirmedDeadlockErrs()...)
	}
	c.report(fmt.Sprintf("cycle#%d", rep.Cycle), errs)
}

// AtPhaseEnd is the core.CollectorConfig.AfterPhase hook: it runs at the
// instant a marking phase completes, the one point where that context's
// marked closure is exact. In deterministic mode this sits between
// scheduler steps; in parallel mode the PEs are still mutating and the
// closure can already be legally stale, so the sweep is skipped.
func (c *Checker) AtPhaseEnd(ctx graph.Ctx) {
	if c.Parallel || c.capped() {
		return
	}
	var errs []string
	errs = append(errs, c.underflowErrs()...)
	errs = append(errs, c.markedClosureErrs(ctx)...)
	c.report(fmt.Sprintf("phase(%s)@epoch%d", ctx, c.Marker.Epoch(ctx)), errs)
}

// AtQuiescence samples at a claimed quiescent point. It verifies stability
// (inflight zero before and after the sweep — otherwise the sample is
// counted skipped, not failed), conservation, and that no marking cycle is
// still active: an active cycle has mark or return tasks outstanding by
// construction, so quiescence with an active cycle means returns were lost.
// In parallel mode the caller must have stopped the collector first, or a
// cycle legitimately starting mid-sample would be misreported.
func (c *Checker) AtQuiescence() {
	if c.capped() {
		return
	}
	if c.Mach.Inflight() != 0 {
		c.skip()
		return
	}
	var errs []string
	errs = append(errs, c.bandErrs()...)
	errs = append(errs, c.underflowErrs()...)
	errs = append(errs, c.conservationErrs()...)
	errs = append(errs, c.confirmedDeadlockErrs()...)
	for _, ctx := range bothCtxs {
		if c.Marker.Active(ctx) {
			errs = append(errs, fmt.Sprintf(
				"quiescent machine but %s marking cycle still active (marks or returns lost)", ctx))
		}
	}
	// A non-empty partition list always has a drainer or a queued
	// continuation, so a quiet machine holds none.
	parked := 0
	c.Marker.EachPending(func(task.Task) { parked++ })
	if parked > 0 {
		errs = append(errs, fmt.Sprintf(
			"quiescent machine but %d marks and returns parked on partition lists (a continuation was lost)", parked))
	}
	if c.Mach.Inflight() != 0 {
		// The machine moved under the sweep; nothing read above is
		// trustworthy.
		c.skip()
		return
	}
	c.report("quiescence", errs)
}

// conservationErrs asserts the inflight conservation law:
//
//	sum(Pool.Len) + fabric in-transit + |EachCurrent| == Machine.Inflight
//
// Every spawned-but-unfinished task is in exactly one of the three places.
// Only meaningful when the machine is not concurrently executing (between
// deterministic steps, or at stable quiescence).
func (c *Checker) conservationErrs() []string {
	pools := 0
	for i := 0; i < c.Mach.PEs(); i++ {
		pools += c.Mach.Pool(i).Len()
	}
	transit := c.Mach.InTransit()
	var current int64
	c.Mach.EachCurrent(func(task.Task) { current++ })
	inflight := c.Mach.Inflight()
	if int64(pools)+transit+current != inflight {
		return []string{fmt.Sprintf(
			"conservation: pools=%d + in-transit=%d + executing=%d != inflight=%d",
			pools, transit, current, inflight)}
	}
	return nil
}

// bandErrs asserts that every queued task's cached Band matches
// ComputeBand — a mismatch means a task was requeued without reclassifying
// it and will be scheduled at the wrong priority. Sound under concurrency:
// Each holds the pool lock and Band is only written under it.
func (c *Checker) bandErrs() []string {
	var errs []string
	for i := 0; i < c.Mach.PEs(); i++ {
		pe := i
		c.Mach.Pool(i).Each(func(t task.Task) {
			if len(errs) >= maxViolations {
				return
			}
			if t.Band != t.ComputeBand() {
				errs = append(errs, fmt.Sprintf(
					"band: PE %d queued %s with band %d, ComputeBand says %d",
					pe, t, t.Band, t.ComputeBand()))
			}
		})
	}
	return errs
}

// underflowErrs asserts the mt-cnt/pendingRoots counters never underflowed
// (an underflow means a return was double-delivered or mis-attributed).
func (c *Checker) underflowErrs() []string {
	var errs []string
	for _, ctx := range bothCtxs {
		if n := c.Marker.UnderflowCount(ctx); n > 0 {
			errs = append(errs, fmt.Sprintf("underflow: %s mt-cnt underflowed %d times", ctx, n))
		}
	}
	return errs
}

// markedClosureErrs asserts invariant 2 of Figure 4-2 over the completed
// cycle's marking: a vertex marked at the context's epoch never points to a
// vertex that is unmarked at that epoch (unless the child was allocated
// during or after the cycle — the cycle never saw it) and never to a freed
// vertex (a freed child of a marked parent is a live vertex the cycle
// failed to protect). It takes one vertex lock at a time, so it is safe
// concurrently with between-cycle mutation: rewires only connect marked or
// fresh vertices while no cycle is active.
func (c *Checker) markedClosureErrs(ctx graph.Ctx) []string {
	epoch := c.Marker.Epoch(ctx)
	var errs []string
	c.Store.ForEach(func(v *graph.Vertex) {
		if len(errs) >= maxViolations {
			return
		}
		v.Lock()
		if v.Kind == graph.KindFree || v.CtxOf(ctx).StateAt(epoch) != graph.Marked {
			v.Unlock()
			return
		}
		id := v.ID
		var children []graph.VertexID
		if ctx == graph.CtxR {
			children = append(children, v.Args()...)
		} else {
			children = v.TaskChildren(nil)
		}
		v.Unlock()
		for _, cid := range children {
			if cid == graph.NilVertex || cid == id {
				continue
			}
			cv := c.Store.Vertex(cid)
			if cv == nil {
				continue
			}
			cv.Lock()
			free := cv.Kind == graph.KindFree
			st := cv.CtxOf(ctx).StateAt(epoch)
			allocEpoch := cv.Red.AllocEpoch
			if ctx == graph.CtxT {
				allocEpoch = cv.Red.AllocEpochT
			}
			cv.Unlock()
			switch {
			case free:
				errs = append(errs, fmt.Sprintf(
					"I2(%s): marked v%d points to freed v%d — live vertex reclaimed", ctx, id, cid))
			case st == graph.Unmarked && allocEpoch < epoch:
				errs = append(errs, fmt.Sprintf(
					"I2(%s): marked v%d has unmarked child v%d after completed cycle", ctx, id, cid))
			}
		}
	})
	return errs
}

// confirmedDeadlockErrs asserts the two-phase verdict's soundness against
// ground truth: a CONFIRMED deadlock verdict claims the vertex can never
// reduce again (reduction axiom 4 — deadlock is stable), so the vertex must
// not have been freed, must not hold a value (that would mean the impossible
// reduction happened), and — when unexecuted reduction tasks exist — must
// not be in the sequential oracle's task-reachable set T (DL'_v = R'_v − T'
// demands DL'_v ∩ T' = ∅). The value/freed legs carry the quiescent case,
// where T is vacuously empty; the oracle leg bites at deterministic cycle
// ends while tasks are still queued.
func (c *Checker) confirmedDeadlockErrs() []string {
	if c.Coll == nil {
		return nil
	}
	dead := c.Coll.Deadlocked()
	if len(dead) == 0 {
		return nil
	}
	var errs []string
	for _, id := range dead {
		v := c.Store.Vertex(id)
		if v == nil {
			continue
		}
		v.Lock()
		free := v.Kind == graph.KindFree
		valued := v.IsValueLocked()
		v.Unlock()
		switch {
		case free:
			errs = append(errs, fmt.Sprintf(
				"verdict: confirmed-deadlocked v%d was freed", id))
		case valued:
			errs = append(errs, fmt.Sprintf(
				"verdict: confirmed-deadlocked v%d holds a value — the impossible reduction happened", id))
		}
	}
	var tasks []task.Task
	keep := func(t task.Task) {
		if t.Kind.IsReduction() {
			tasks = append(tasks, t)
		}
	}
	for i := 0; i < c.Mach.PEs(); i++ {
		c.Mach.Pool(i).Each(keep)
	}
	c.Mach.EachInTransit(keep)
	c.Mach.EachCurrent(keep)
	if len(tasks) > 0 {
		res := analysis.Analyze(c.Store.Snapshot(), c.Coll.Root(), tasks)
		for _, id := range dead {
			if res.T[id] {
				errs = append(errs, fmt.Sprintf(
					"verdict: confirmed-deadlocked v%d is task-reachable (DL'_v ⊄ R'_v − T')", id))
			}
		}
	}
	return errs
}

// report records one sample's outcome.
func (c *Checker) report(point string, errs []string) {
	if c.Counters != nil {
		c.Counters.CheckRuns.Add(1)
	}
	if len(errs) == 0 {
		return
	}
	if c.Counters != nil {
		c.Counters.CheckViolations.Add(int64(len(errs)))
	}
	c.mu.Lock()
	for _, e := range errs {
		if len(c.violations) >= maxViolations {
			break
		}
		c.violations = append(c.violations, point+": "+e)
	}
	c.mu.Unlock()
	if c.Obs != nil {
		for _, e := range errs {
			c.Obs.Event(obs.TIDEval, "check.violation", 0, 0, point+": "+e)
		}
	}
	if c.OnViolation != nil {
		c.OnViolation()
	}
}

func (c *Checker) skip() {
	if c.Counters != nil {
		c.Counters.CheckSkipped.Add(1)
	}
}

func (c *Checker) capped() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) >= maxViolations
}

// Violations returns the violations recorded so far.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// Err summarizes the recorded violations as a single error, nil when the
// run is clean.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s); first: %s",
		len(c.violations), c.violations[0])
}
