package dgr

import (
	"flag"
	"os"
	"strings"
	"testing"

	"dgr/internal/check"
	"dgr/internal/core"
	"dgr/internal/graph"
	"dgr/internal/sched"
)

// regenReplayLogs regenerates the checked-in replay logs under
// internal/check/testdata (go test -run FalseDeadlock -regen-replay-logs).
var regenReplayLogs = flag.Bool("regen-replay-logs", false,
	"regenerate the internal/check/testdata replay logs")

const (
	falseDeadlockLog = "internal/check/testdata/false_deadlock_replay.jsonl"
	falseDeadlockSrc = "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10"
)

// falseDeadlockOpts are shared by the recording and the replaying machine —
// replay requires an identically-built initial graph. The doctoring needs
// three M_T cycles with roots. Since the engine recognises a local partial
// application in place, fib 10 runs about a quarter fewer steps, and at a
// GCInterval of 2000 (down to 1500) records only two. At 1250 it records
// three, with a margin to the interval where the third is lost.
func falseDeadlockOpts() Options {
	return Options{PEs: 2, Seed: 11, MTEvery: 1, GCInterval: 1250}
}

// regenFalseDeadlockLog records a clean deterministic fib run and doctors
// it into the false-deadlock schedule the parallel race produces: one
// mid-run M_T cycle's recorded root snapshot is emptied and that epoch's
// marking executions are dropped, exactly as if the snapshot had missed
// every live task (the pop→publish invisibility window, scaled up from one
// task to all of them). Everything else — the reductions that prove the
// program was live all along, and the next M_T cycle that sees them — stays
// verbatim. Replayed on a single-read collector this yields a spurious
// stable deadlock verdict over the whole R_v set; the two-phase collector
// must retract it one cycle later.
func regenFalseDeadlockLog(t *testing.T) {
	opts := falseDeadlockOpts()
	opts.RecordSchedule = true
	m := New(opts)
	defer m.Close()
	v, err := m.Eval(falseDeadlockSrc)
	if err != nil || v.Int != 55 {
		t.Fatalf("recording run: v=%v err=%v, want 55", v, err)
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}

	// Locate the M_T cycle starts. The i-th one (1-based) ran at T epoch i:
	// every M_T StartCycle is recorded, and epochs advance by one per start.
	var tCycles []int
	for i := range events {
		if isRootedTCycle(events, i) {
			tCycles = append(tCycles, i)
		}
	}
	// The doctored cycle needs nonempty roots to empty, and at least one
	// later M_T cycle to perform the retraction.
	if len(tCycles) < 3 {
		t.Fatalf("recording run produced only %d M_T cycles with roots; need ≥ 3", len(tCycles))
	}
	victim := tCycles[len(tCycles)/2]
	epoch := uint32(0)
	for _, i := range tCycles {
		epoch++
		if i == victim {
			break
		}
	}
	doctored := events[:0:0]
	dropped := 0
	inPhase := false // between the victim's start and the next phase's
	for i, e := range events {
		if e.Op == sched.OpCycle {
			inPhase = i == victim
		}
		// The victim's roots go. The phase's continuations drained the lists
		// its roots filled; they carry no epoch of their own. What its
		// drains took in goes with them.
		marking := e.Op == sched.OpExec || e.Op == sched.OpAbsorb
		if marking && (e.Ctx == graph.CtxT && e.Epoch == epoch || inPhase && core.IsContinuation(e.Task())) {
			dropped++
			continue
		}
		if inPhase && e.Op == sched.OpRoot {
			continue
		}
		doctored = append(doctored, e)
	}
	if dropped == 0 {
		t.Fatalf("no T-marking executions at epoch %d to drop", epoch)
	}

	f, err := os.Create(falseDeadlockLog)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := check.WriteJSONL(f, doctored); err != nil {
		t.Fatal(err)
	}
	t.Logf("regenerated %s: %d events (%d T-marking executions of epoch %d dropped)",
		falseDeadlockLog, len(doctored), dropped, epoch)
}

// isRootedTCycle reports whether entry i starts an M_T phase that has roots:
// root entries follow it.
func isRootedTCycle(entries []sched.Entry, i int) bool {
	return entries[i].Op == sched.OpCycle && entries[i].Ctx == graph.CtxT &&
		i+1 < len(entries) && entries[i+1].Op == sched.OpRoot
}

// TestFalseDeadlockReplayRegression replays the checked-in doctored
// schedule: an M_T snapshot that missed every live task nominates the whole
// reachable set as deadlocked, and the next M_T cycle — which sees the
// tasks again — must retract the verdict rather than let it stand. On the
// pre-two-phase collector this replay ends with a nonempty Deadlocked()
// (the false verdict is terminal); on the fixed collector it ends clean,
// with the retraction visible in the DeadlockRetracted counter.
func TestFalseDeadlockReplayRegression(t *testing.T) {
	if *regenReplayLogs {
		regenFalseDeadlockLog(t)
	}
	f, err := os.Open(falseDeadlockLog)
	if err != nil {
		t.Fatalf("%v (regenerate with -regen-replay-logs)", err)
	}
	events, err := check.ReadJSONL(f, nil)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the log really contains the doctored (empty-roots) M_T cycle.
	doctoredCycles := 0
	for i, e := range events {
		if e.Op == sched.OpCycle && e.Ctx == graph.CtxT && !isRootedTCycle(events, i) {
			doctoredCycles++
		}
	}
	if doctoredCycles != 1 {
		t.Fatalf("log has %d empty-roots M_T cycles, want exactly 1 (stale log? regenerate)", doctoredCycles)
	}

	opts := falseDeadlockOpts()
	opts.CheckEvery = 64
	m := New(opts)
	defer m.Close()
	root, err := m.Compile(falseDeadlockSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ReplaySchedule(root, events); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
	if dead := m.Deadlocked(); len(dead) != 0 {
		t.Fatalf("false deadlock verdict survived the replay: %v", dead)
	}
	if got := m.Stats().DeadlockRetracted; got < 1 {
		t.Fatalf("DeadlockRetracted = %d, want ≥ 1 (the doctored snapshot's candidates must be retracted)", got)
	}
	if cerr := m.CheckErr(); cerr != nil {
		t.Fatalf("checker violations during replay: %v\n%s",
			cerr, strings.Join(m.CheckViolations(), "\n"))
	}
	// The replayed graph holds the finished computation.
	v, err := m.EvalNode(root)
	if err != nil || v.Int != 55 {
		t.Fatalf("replayed graph evaluates to %v (err %v), want 55", v, err)
	}
}
