package check

import (
	"fmt"

	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// Replayer re-drives a deterministic machine from a recorded schedule. The
// replay machine must start from the same initial graph and task state as
// the recorded run (same program, same seed, same PE count) but runs in
// deterministic mode with no fabric: the log's serial order subsumes every
// delivery the fabric performed, so a task is always already in its
// destination pool when its exec event comes up (messages only ever arrive
// earlier, never later, than in the recorded run).
//
// Exec events are matched on the task's identity fields — Kind, Src, Dst,
// Ctx, Epoch, Prior — and deliberately not on Req: restructuring may
// reprioritize a queued Demand's request kind, and the recorded run's
// fabric may have applied that rewrite to a different copy than replay
// sees. The recorded task is executed verbatim either way, so the handler
// observes exactly the recorded inputs.
//
// Marking work is claimed, not only executed: a drain takes in the marks and
// returns queued for its partition (core.Marker's absorb) and the log lists
// each as an absorb event, after the execution whose drain took it in. A
// replayed drain may take in only what the absorb events right after the
// event being replayed list, up to the next execution or phase event; on a
// deterministic recording that is exactly what the recorded drain took in.
// A parallel recording's drain ran alongside later events and took in work
// as it arrived; replay runs it whole at its execution, so what it took in
// later comes up as absorb events of their own, and each is claimed from
// what a replayed drain took in or executed where it is queued — at about
// the point the recorded drain reached it. A replayed drain can also have
// got less far than the recorded one when a task it would spawn comes up;
// then the spawning partition's continuation runs first. A recorded
// continuation matches any queued continuation of its partition; when none
// is queued the partition has nothing pending. A cooperation root (a mark
// with no parent) depends on how far marking had got when a mutator ran, so
// the log supplies it as a cycle's root lines supply its roots: replay adds a
// recorded one its own cooperation did not, and runs one its cooperation
// added that the recording did not at the phase boundary. Anything else is a
// divergence: a mark of a parent or a return neither queued nor taken in, a
// phase the log closes that replay cannot finish, or a taken-in task of the
// closed phase that the log never ran.
type Replayer struct {
	Mach *sched.Machine
	Coll *core.Collector

	// absorbed counts, by identity (key), the marks and returns replayed
	// drains took in that no event has claimed yet; window, those a replayed
	// drain may still take in (see Replayer).
	absorbed map[task.Task]int
	window   map[task.Task]int
}

// Run replays the schedule, returning a descriptive error at the first
// divergence (see Replayer). A clean replay of a recorded violation run
// drives the machine to the same failing step, where the caller's checker
// reports it again.
func (rp *Replayer) Run(entries []sched.Entry) error {
	if rp.Coll != nil {
		rp.absorbed = make(map[task.Task]int)
		rp.window = make(map[task.Task]int)
		mk := rp.Coll.Marker()
		mk.SetAbsorbHook(func(t task.Task) bool {
			k := key(t)
			if rp.window[k] == 0 {
				return false
			}
			rp.window[k]--
			rp.absorbed[k]++
			return true
		})
		defer mk.SetAbsorbHook(nil)
	}
	for i := 0; i < len(entries); i++ {
		e := &entries[i]
		// An execution opens a window of the absorb entries right after it;
		// any other entry but an absorb closes it.
		if rp.window != nil && e.Op != sched.OpAbsorb {
			clear(rp.window)
			for _, a := range entries[i+1:] {
				if e.Op != sched.OpExec || a.Op != sched.OpAbsorb {
					break
				}
				rp.window[key(a.Task())]++
			}
		}
		switch e.Op {
		case sched.OpCycle:
			if rp.Coll == nil {
				return fmt.Errorf("check: replay event %d is a cycle start but no collector is wired", i)
			}
			if err := rp.closePhases(i); err != nil {
				return err
			}
			var roots []sched.Root
			for ; i+1 < len(entries) && entries[i+1].Op == sched.OpRoot; i++ {
				roots = append(roots, sched.Root{ID: entries[i+1].Dst, Prior: entries[i+1].Prior})
			}
			rp.Coll.ReplayCycleStart(e.Ctx, roots)
		case sched.OpRoot:
			return fmt.Errorf("check: replay event %d is a root that follows no cycle start", i)
		case sched.OpRestructure:
			if rp.Coll == nil {
				return fmt.Errorf("check: replay event %d is a restructure but no collector is wired", i)
			}
			if err := rp.closePhases(i); err != nil {
				return err
			}
			rp.Coll.ReplayRestructure(e.MT)
		case sched.OpExec, sched.OpAbsorb:
			want := e.Task()
			switch {
			case e.Op == sched.OpExec && core.IsContinuation(want):
				// A continuation names its partition by whichever of its
				// vertices the drain that queued it ran for.
				rp.runContinuation(rp.Mach.PartOf(want.Dst))
			case e.Op == sched.OpExec && !want.Kind.IsMarking():
				if !rp.execute(want) {
					return rp.diverged(i, e, want)
				}
			default:
				if rp.Coll == nil {
					return fmt.Errorf("check: replay event %d is marking work but no collector is wired", i)
				}
				if !rp.claim(e.Op, want) {
					return rp.diverged(i, e, want)
				}
			}
		default:
			return fmt.Errorf("check: replay event %d has unknown kind %v", i, e.Op)
		}
	}
	return nil
}

// diverged reports event i as a task replay neither has queued in its home
// pool nor took in. An execution is named as the recording numbered it, with
// the PE that ran it.
func (rp *Replayer) diverged(i int, e *sched.Entry, want task.Task) error {
	what := e.Op.String()
	if e.Op == sched.OpExec {
		what = fmt.Sprintf("exec #%d (PE %d)", e.Seq, e.PE)
	}
	home := rp.Mach.PartOf(want.Dst)
	return fmt.Errorf(
		"check: replay diverged at event %d: %s %s not queued on its home PE %d (pool holds %d tasks, machine inflight %d)",
		i, what, want, home, rp.Mach.Pool(home).Len(), rp.Mach.Inflight())
}

// execute runs the queued task matching want from its home pool, the PE
// owning its destination: replay runs with no stealing, so a task the
// recorded run stole sits there. A task's effect depends on the task and the
// graph, not on the PE that runs it (the engine's in-place rules ask the
// task's partition), so the event's PE is bookkeeping.
func (rp *Replayer) execute(want task.Task) bool {
	return rp.Mach.ExecuteMatching(rp.Mach.PartOf(want.Dst),
		func(q task.Task) bool { return sameTask(q, want) }, want)
}

// claim accounts for a recorded mark or return (see Replayer), reporting
// whether it could. An absorb is claimed from what replayed drains took in
// before a queued copy is executed, and an execution the other way round,
// so a deterministic replay matches each the way the recorded run did.
func (rp *Replayer) claim(op sched.Op, want task.Task) bool {
	k := key(want)
	for {
		if op == sched.OpAbsorb && rp.take(k) {
			return true
		}
		if rp.execute(want) {
			if op == sched.OpAbsorb && rp.window[k] > 0 {
				rp.window[k]-- // this event is claimed; its drain may not take it in again
			}
			return true
		}
		if rp.take(k) {
			return true
		}
		if isCoopRoot(want) {
			// The recorded run's cooperation registered this root; replay's
			// marking, further on or behind, may not have. Like a cycle's
			// roots, it is input the log supplies.
			if !rp.Coll.Marker().AddRootDuringCycle(want.Ctx, want.Dst, want.Prior) {
				return false
			}
			continue
		}
		if want.Src == graph.NilVertex || !rp.runContinuation(rp.Mach.PartOf(want.Src)) {
			return false
		}
	}
}

// isCoopRoot reports whether a recorded task is a root a cooperating mutator
// added to the running cycle (core.Marker.AddRootDuringCycle): a mark with no
// parent. A cycle's own roots start on their partitions' lists and are never
// queued as tasks.
func isCoopRoot(t task.Task) bool {
	return t.Kind == task.Mark && t.Src == graph.NilVertex && !core.IsContinuation(t)
}

// take claims one task a replayed drain took in.
func (rp *Replayer) take(k task.Task) bool {
	if rp.absorbed[k] == 0 {
		return false
	}
	rp.absorbed[k]--
	return true
}

// runContinuation executes a queued continuation of partition part,
// reporting whether there was one.
func (rp *Replayer) runContinuation(part int) bool {
	return rp.runQueued(func(q task.Task) bool { return core.IsContinuation(q) && rp.Mach.PartOf(q.Dst) == part })
}

// runQueued executes one queued task matching pred, reporting whether there
// was one.
func (rp *Replayer) runQueued(pred func(task.Task) bool) bool {
	for pe := range rp.Mach.PEs() {
		var c task.Task
		found := false
		rp.Mach.Pool(pe).Each(func(q task.Task) {
			if !found && pred(q) {
				c, found = q, true
			}
		})
		if found {
			return rp.Mach.ExecuteMatching(pe, func(q task.Task) bool { return q == c }, c)
		}
	}
	return false
}

// closePhases runs at a recorded phase boundary: the recorded run's phase
// was done there, so replay finishes it — from its partitions' lists, and
// from any root replay's own cooperation added that the recorded run's did
// not — and then checks that it is done and that its drains took in nothing
// the log does not list.
func (rp *Replayer) closePhases(i int) error {
	mk := rp.Coll.Marker()
	open := func(q task.Task) bool {
		if core.IsContinuation(q) {
			return mk.Active(graph.CtxR) || mk.Active(graph.CtxT)
		}
		return isCoopRoot(q) && mk.Active(q.Ctx) && q.Epoch == mk.Epoch(q.Ctx)
	}
	for rp.runQueued(open) {
	}
	for _, c := range []graph.Ctx{graph.CtxR, graph.CtxT} {
		if mk.Active(c) {
			return fmt.Errorf("check: replay diverged at event %d: the log closes the %v phase, replay's is still open (machine inflight %d)",
				i, c, rp.Mach.Inflight())
		}
	}
	for k, n := range rp.absorbed {
		if n > 0 && k.Epoch == mk.Epoch(k.Ctx) {
			return fmt.Errorf("check: replay diverged at event %d: a replayed drain took in %s, which the log never ran", i, k)
		}
	}
	return nil
}

// key is a marking task's identity, what sameTask compares: not its causal
// word, which a replay makes anew.
func key(t task.Task) task.Task {
	t.Req, t.Band, t.Parent = 0, 0, 0
	return t
}

// sameTask matches a queued task against a recorded one on identity
// fields, ignoring Req (see Replayer) and the Band cache.
func sameTask(q, want task.Task) bool {
	return q.Kind == want.Kind && q.Src == want.Src && q.Dst == want.Dst &&
		q.Ctx == want.Ctx && q.Epoch == want.Epoch && q.Prior == want.Prior
}
