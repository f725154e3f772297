package check

import (
	"fmt"

	"dgr/internal/core"
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
type Replayer struct {
	Mach *sched.Machine
	Coll *core.Collector
}

// Run replays the schedule, returning a descriptive error at the first
// divergence (an exec event whose task is not queued on the recorded PE).
// A clean replay of a recorded violation run drives the machine to the
// same failing step, where the caller's checker reports it again.
func (rp *Replayer) Run(events []Event) error {
	for i, e := range events {
		switch e.Ev {
		case EvMeta:
			// Informational only.
		case EvCycle:
			if rp.Coll == nil {
				return fmt.Errorf("check: replay event %d is a cycle start but no collector is wired", i)
			}
			roots := make([]core.Root, len(e.Roots))
			for j, r := range e.Roots {
				roots[j] = core.Root{ID: r.ID, Prior: r.Prior}
			}
			rp.Coll.ReplayCycleStart(e.Ctx, roots)
		case EvRestructure:
			if rp.Coll == nil {
				return fmt.Errorf("check: replay event %d is a restructure but no collector is wired", i)
			}
			rp.Coll.ReplayRestructure(e.MT)
		case EvExec:
			want := e.Task()
			pred := func(q task.Task) bool { return sameTask(q, want) }
			ok := rp.Mach.ExecuteMatching(e.PE, pred, want)
			if !ok {
				// The recorded run may have stolen the task to the PE it
				// executed on; replay runs with no stealing, so the task sits
				// in its home partition's pool. Executing it there instead is
				// the same serialization — the event's PE is bookkeeping, the
				// task's effect is PE-independent.
				for pe := 0; pe < rp.Mach.PEs() && !ok; pe++ {
					if pe == e.PE {
						continue
					}
					ok = rp.Mach.ExecuteMatching(pe, pred, want)
				}
			}
			if !ok {
				return fmt.Errorf(
					"check: replay diverged at event %d: %s not queued on PE %d (pool holds %d tasks, machine inflight %d)",
					i, want, e.PE, rp.Mach.Pool(e.PE).Len(), rp.Mach.Inflight())
			}
		default:
			return fmt.Errorf("check: replay event %d has unknown kind %q", i, e.Ev)
		}
	}
	return nil
}

// sameTask matches a queued task against a recorded one on identity
// fields, ignoring Req (see Replayer) and the Band cache.
func sameTask(q, want task.Task) bool {
	return q.Kind == want.Kind && q.Src == want.Src && q.Dst == want.Dst &&
		q.Ctx == want.Ctx && q.Epoch == want.Epoch && q.Prior == want.Prior
}
