package dgr

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dgr/internal/check"
	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/task"
	"dgr/internal/workload"
)

// TestCheckedEvalDeterministic runs corpus programs under the invariant
// checker at an aggressive sample rate: results must still be correct and
// every sample clean.
func TestCheckedEvalDeterministic(t *testing.T) {
	for _, name := range []string{"fib", "churn", "sumsquares"} {
		p := workload.Programs[name]
		m := New(Options{PEs: 4, Seed: 7, Check: true, CheckEvery: 2048,
			GCInterval: 2000})
		v, err := m.Eval(p.Src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v.Int != p.Want {
			t.Fatalf("%s = %d, want %d", name, v.Int, p.Want)
		}
		if cerr := m.CheckErr(); cerr != nil {
			t.Fatalf("%s: %v\n%s", name, cerr, strings.Join(m.CheckViolations(), "\n"))
		}
		st := m.Stats()
		if st.CheckRuns == 0 {
			t.Fatalf("%s: checker never sampled", name)
		}
		if st.CheckViolations != 0 {
			t.Fatalf("%s: CheckViolations = %d with nil CheckErr", name, st.CheckViolations)
		}
		m.Close()
	}
}

// TestCheckedEvalParallel runs the checker's concurrency-safe subset during
// a parallel evaluation, including the quiescence sweep at Close.
func TestCheckedEvalParallel(t *testing.T) {
	p := workload.Programs["fib"]
	m := New(Options{PEs: 4, Parallel: true, Check: true, CheckEvery: 512})
	v, err := m.Eval(p.Src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != p.Want {
		t.Fatalf("fib = %d, want %d", v.Int, p.Want)
	}
	m.Close()
	if cerr := m.CheckErr(); cerr != nil {
		t.Fatalf("%v\n%s", cerr, strings.Join(m.CheckViolations(), "\n"))
	}
	if m.Stats().CheckRuns == 0 {
		t.Fatal("checker never sampled")
	}
}

// TestCheckedEvalFabric covers the conservation law's fabric term: tasks in
// transit (including lossy redelivery) must still balance the books.
func TestCheckedEvalFabric(t *testing.T) {
	p := workload.Programs["fib"]
	m := New(Options{
		PEs: 4, Seed: 3, Check: true, CheckEvery: 2048, GCInterval: 2000,
		Fabric: &fabric.Params{DropRate: 0.2},
	})
	defer m.Close()
	v, err := m.Eval(p.Src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != p.Want {
		t.Fatalf("fib = %d, want %d", v.Int, p.Want)
	}
	if cerr := m.CheckErr(); cerr != nil {
		t.Fatalf("%v\n%s", cerr, strings.Join(m.CheckViolations(), "\n"))
	}
}

// TestFaultSkipMarkCaught validates the checker end to end: dropping a
// deterministic fraction of child marks must surface as a marking-invariant
// violation (invariant 2: a marked vertex with an unprotected child).
func TestFaultSkipMarkCaught(t *testing.T) {
	p := workload.Programs["churn"]
	m := New(Options{
		PEs: 4, Seed: 7, Check: true, CheckEvery: 1 << 30, GCInterval: 500,
		Stress: &check.Stress{FaultSkipMark: 3},
	})
	defer m.Close()
	m.Eval(p.Src) // outcome irrelevant: the run is deliberately corrupted
	if m.CheckErr() == nil {
		t.Fatal("injected mark-skip fault not caught")
	}
	if first := firstI2(m.CheckViolations()); first == "" {
		t.Fatalf("no I2 violation among: %s", strings.Join(m.CheckViolations(), "\n"))
	}
}

// TestRecordReplayEval records a clean deterministic run and re-drives a
// fresh machine from the log: same execution count, no divergence, clean
// checker, and the replayed graph reduces to the same value.
func TestRecordReplayEval(t *testing.T) {
	// Small enough that the full schedule (marking tasks included) fits a
	// test-sized log, with GCInterval low enough to put cycles in it.
	src := "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10"
	const want = 55
	m := New(Options{
		PEs: 3, Seed: 5, Check: true, CheckEvery: 512, GCInterval: 500,
		RecordSchedule: true,
	})
	defer m.Close()
	v, err := m.Eval(src)
	if err != nil {
		t.Fatal(err)
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	execs := 0
	for _, e := range events {
		if e.Ev == check.EvExec {
			execs++
		}
	}
	if int64(execs) != m.Stats().TasksExecuted {
		t.Fatalf("recorded %d exec events, machine executed %d", execs, m.Stats().TasksExecuted)
	}

	// The JSONL round trip is part of the contract: replay from the decoded
	// form, as dgr-check does.
	var buf bytes.Buffer
	if err := m.WriteScheduleJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := check.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}

	m2 := New(Options{PEs: 3, Seed: 999, Check: true, CheckEvery: 512, GCInterval: 500})
	defer m2.Close()
	root, err := m2.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ReplaySchedule(root, decoded); err != nil {
		t.Fatal(err)
	}
	if got := m2.Stats().TasksExecuted; got != int64(execs) {
		t.Fatalf("replay executed %d tasks, log has %d", got, execs)
	}
	if cerr := m2.CheckErr(); cerr != nil {
		t.Fatalf("replay violations: %v\n%s", cerr, strings.Join(m2.CheckViolations(), "\n"))
	}
	// The replayed graph holds the finished computation: evaluating the same
	// root again must yield the recorded run's value without further ado.
	v2, err := m2.EvalNode(root)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Int != v.Int || v2.Int != want {
		t.Fatalf("replayed graph evaluates to %d, recorded run got %d, want %d", v2.Int, v.Int, want)
	}
}

// TestReplayedCycleEqualsLive: a replayed collector cycle runs the body a
// live one runs — the replayer only supplies the roots and the order of the
// tasks. A recorded deterministic run that collects, with M_T in every cycle,
// and its replay on a fresh machine end with identical counters: cycles, M_T
// runs, vertices reclaimed, tasks expunged and reprioritized, every mark.
func TestReplayedCycleEqualsLive(t *testing.T) {
	src := "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10"
	opts := Options{PEs: 3, Seed: 5, GCInterval: 500, MTEvery: 1}
	live := opts
	live.RecordSchedule = true
	m := New(live)
	defer m.Close()
	if _, err := m.Eval(src); err != nil {
		t.Fatal(err)
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	want := m.Stats()
	if want.Cycles < 3 || want.MTRuns != want.Cycles || want.Reclaimed == 0 {
		t.Fatalf("the recorded run must collect, with M_T in every cycle: %v", want)
	}

	m2 := New(opts)
	defer m2.Close()
	root, err := m2.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.ReplaySchedule(root, events); err != nil {
		t.Fatal(err)
	}
	if got := m2.Stats(); got != want {
		t.Errorf("replayed counters differ from the live run's:\nlive   %+v\nreplay %+v", want, got)
	}
}

// TestReplayMissingMarkDiverges: replay accounts for every mark of a parent,
// whether it ran as a task or a drain took it in. A log with one such mark
// removed leaves replay a mark the log never ran; a log that runs one twice
// asks for a mark replay never queued — a mark replay lost. Each is a
// divergence, not a replay that runs on without it.
func TestReplayMissingMarkDiverges(t *testing.T) {
	src := "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10"
	opts := Options{PEs: 3, Seed: 5, GCInterval: 500, MTEvery: 1}
	live := opts
	live.RecordSchedule = true
	m := New(live)
	defer m.Close()
	if _, err := m.Eval(src); err != nil {
		t.Fatal(err)
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []string{check.EvExec, check.EvAbsorb} {
		victim := -1
		for i, e := range events {
			if e.Ev == ev && e.Kind == task.Mark && e.Src != graph.NilVertex {
				victim = i
				break
			}
		}
		if victim < 0 {
			t.Fatalf("the recorded run has no %s of a mark", ev)
		}
		removed := append(append([]check.Event(nil), events[:victim]...), events[victim+1:]...)
		twice := append(append([]check.Event(nil), events[:victim+1]...), events[victim:]...)
		for what, doctored := range map[string][]check.Event{"without": removed, "running twice": twice} {
			m2 := New(opts)
			root, err := m2.Compile(src)
			if err != nil {
				t.Fatal(err)
			}
			err = m2.ReplaySchedule(root, doctored)
			m2.Close()
			if err == nil || !strings.Contains(err.Error(), "diverged") {
				t.Errorf("log %s %s event %d (%s) replayed with error %v, want a divergence",
					what, ev, victim, events[victim].Task(), err)
			}
		}
	}
}

// TestParallelFaultReplaysToSameViolation is the full pipeline the tooling
// exists for: a parallel run with an injected marking fault is caught by the
// checker, its recorded schedule is replayed on a fresh deterministic
// machine with the same (content-addressed) fault, and the replay reproduces
// the same first violation at the same cycle.
func TestParallelFaultReplaysToSameViolation(t *testing.T) {
	p := workload.Programs["churn"]
	var m *Machine
	var want string
	// Parallel timing decides how much work a cycle sees; scan a few seeds
	// for a run whose corruption is caught (in practice the first hits).
	// churn is some 5 000 tasks: a cycle every 500 collects it throughout.
	for seed := int64(1); seed <= 5; seed++ {
		m = New(Options{
			PEs: 4, Seed: seed, Parallel: true, Check: true, CheckEvery: 1 << 30,
			RecordSchedule: true, Stress: &check.Stress{FaultSkipMark: 3},
			Timeout: 3 * time.Second, GCInterval: 500,
		})
		m.Eval(p.Src) // outcome irrelevant: the run is deliberately corrupted
		m.Close()
		if want = firstI2(m.CheckViolations()); want != "" {
			break
		}
	}
	if want == "" {
		t.Fatalf("no seed produced an I2 violation; last run: %s",
			strings.Join(m.CheckViolations(), "\n"))
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}

	m2 := New(Options{
		PEs: 4, Seed: 1, Check: true, CheckEvery: 1 << 30,
		Stress: &check.Stress{FaultSkipMark: 3},
	})
	defer m2.Close()
	root, err := m2.Compile(p.Src)
	if err != nil {
		t.Fatal(err)
	}
	// Replay up to (at least) the failing step. Divergence after the
	// violation is reproduced can happen — the recorded run's restructure
	// raced its mutators, and a corrupted machine recycles vertices
	// unpredictably — but the violation itself must come back identically.
	rerr := m2.ReplaySchedule(root, events)
	got := firstI2(m2.CheckViolations())
	if got == "" {
		t.Fatalf("replay reproduced no I2 violation (replay err: %v); violations: %s",
			rerr, strings.Join(m2.CheckViolations(), "\n"))
	}
	if got != want {
		t.Fatalf("replayed violation differs:\nrecorded: %s\nreplayed: %s", want, got)
	}
}

// firstI2 returns the first recorded marking-invariant-2 violation.
func firstI2(violations []string) string {
	for _, v := range violations {
		if strings.Contains(v, "I2(") {
			return v
		}
	}
	return ""
}
