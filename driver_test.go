package dgr

// Tests of the evaluation driver (dgr.go: drive, advance, settle, quietCycles):
// the patience rule as a pure function, the seeded path pinned to the outcomes
// it reached before there was one driver, and the parallel path's two
// promises — a verdict within a cycle of being decided, ErrClosed on Close.

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

const (
	knot    = "let x = x + 1 in x"
	runaway = "let loop n = loop (n + 1) in loop 0"
)

// TestPatienceRule drives the patience rule over sequences of per-cycle
// readings. A reading is {quiescent, reductions}; stuck is the 1-based reading
// at which patience is spent, 0 for never.
func TestPatienceRule(t *testing.T) {
	type rd struct {
		quiet bool
		red   int64
	}
	q := func(red int64) rd { return rd{true, red} }
	busy := func(red int64) rd { return rd{false, red} }
	cases := []struct {
		name    string
		mtEvery int
		seq     []rd
		stuck   int
	}{
		{"M_T off: two quiet cycles", 0, []rd{q(5), q(5)}, 2},
		{"M_T off, as Options gives it", -1, []rd{q(5), q(5)}, 2},
		{"k=1: 2k+1", 1, []rd{q(5), q(5), q(5), q(5)}, 3},
		{"k=4: 2k+1", 4, slices.Repeat([]rd{q(9)}, 10), 9},
		{"one short of patience", 1, []rd{q(5), q(5)}, 0},
		{"a busy machine is never charged", 0, []rd{busy(1), busy(1), busy(1), busy(1)}, 0},
		{"non-quiescence starts over", 1, []rd{q(5), q(5), busy(5), q(5), q(5), q(5)}, 6},
		{"progress starts over, at one", 1, []rd{q(5), q(5), q(6), q(6), q(6)}, 5},
		{"progress on every close never ends", 0, []rd{q(1), q(2), q(3), q(4)}, 0},
		{"the first quiet close counts whatever was reduced before it", 0, []rd{busy(0), q(7), q(7)}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var last reading
			quiet, stuck := 0, 0
			for i, rd := range tc.seq {
				r := reading{quiescent: rd.quiet, reductions: rd.red}
				if quiet = quietCycles(quiet, last, r); quiet >= maxQuietCycles(tc.mtEvery) {
					stuck = i + 1
					break
				}
				last = r
			}
			if stuck != tc.stuck {
				t.Errorf("patience spent at reading %d, want %d", stuck, tc.stuck)
			}
		})
	}
}

// statsLine renders the non-zero counters of s by name, in declaration order.
func statsLine(s Stats) string {
	var b strings.Builder
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() != 0 {
			fmt.Fprintf(&b, " %s=%d", v.Type().Field(i).Name, f.Int())
		}
	}
	return b.String()
}

// TestSeededOutcomeUnchanged pins the seeded driver: every way an evaluation
// can end without a value — a confirmed deadlock, patience spent, the budget —
// is reached at the same cycle and step as before the two drivers became one.
// testdata/seeded_outcome.golden was captured at that commit, one line per
// run: the error and every non-zero counter of Stats(). It was regenerated
// twice since (-regen-seeded-outcome), when a reduction step's continuation
// began to run in place and when a local demand or result did: each time the
// knot runs moved in TasksExecuted, ReductionTasks, InlineSteps and
// LocalMessages alone, every error, Cycles and MarkVisits as before. A third
// time, when a local partial application came to be recognised in place
// instead of demanded, the interp knot runs moved in InlineSteps alone (8 to
// 5), the compiled ones not at all, and every budget run kept its error and
// its Cycles. The budget runs are compared on the error and Cycles alone.
// MaxSteps counts every step, marking tasks included, so when a partition's
// pending marks became one task, or a task began to run reduction steps in
// place, the budget bought different work: those runs still end in the same
// cycle, but their reduction, rewrite, allocation and marking counts moved
// with it.
func TestSeededOutcomeUnchanged(t *testing.T) {
	cases := []struct {
		name, src string
		opts      Options
	}{
		{"knot/mt=1", knot, Options{MTEvery: 1}},
		{"knot/mt=4", knot, Options{MTEvery: 4}},
		{"knot/mt=-1", knot, Options{MTEvery: -1}},
		{"loop/maxsteps=5000", runaway, Options{MaxSteps: 5000}},
	}
	var got []string
	for _, tc := range cases {
		for _, engine := range []string{EngineInterp, EngineCompiled} {
			for seed := int64(0); seed < 8; seed++ {
				o := tc.opts
				o.PEs, o.Seed, o.Engine = 4, seed, engine
				m := New(o)
				_, err := m.Eval(tc.src)
				got = append(got, fmt.Sprintf("%s/%s/seed=%d: %v |%s", tc.name, engine, seed, err, statsLine(m.Stats())))
				m.Close()
			}
		}
	}
	if *regenSeededOutcome {
		if err := os.WriteFile(seededOutcomeGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s: %d runs", seededOutcomeGolden, len(got))
	}
	golden, err := os.ReadFile(seededOutcomeGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d runs, golden has %d", len(got), len(want))
	}
	for i := range got {
		if strings.HasPrefix(got[i], "loop/") {
			got[i], want[i] = budgetOutcome(got[i]), budgetOutcome(want[i])
		}
		if got[i] != want[i] {
			t.Errorf("seeded outcome changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// regenSeededOutcome rewrites testdata/seeded_outcome.golden from this build
// (go test -run TestSeededOutcomeUnchanged -regen-seeded-outcome).
var regenSeededOutcome = flag.Bool("regen-seeded-outcome", false,
	"regenerate testdata/seeded_outcome.golden")

const seededOutcomeGolden = "testdata/seeded_outcome.golden"

// budgetOutcome cuts a budget run's golden line down to its error and Cycles.
func budgetOutcome(line string) string {
	head, counters, _ := strings.Cut(line, " |")
	for _, f := range strings.Fields(counters) {
		if strings.HasPrefix(f, "Cycles=") {
			return head + " | " + f
		}
	}
	return head
}

// TestParallelVerdictWithinACycle: a parallel evaluation learns its verdict
// from the cycle that decided it, not from a clock. The knot ends in
// ErrDeadlock (ErrStuck with M_T off) with no more collector cycles run than
// the verdict needs, plus the one open when reduction went quiet and the one
// that may close while Eval returns — a count, so a loaded runner cannot fail
// it; the times are logged, not asserted. (On a 10 ms poll this read 9–17
// cycles at MTEvery 1 against a bound of 5.)
func TestParallelVerdictWithinACycle(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel machines")
	}
	for _, mtEvery := range []int{1, 4, -1} {
		want := ErrDeadlock
		if mtEvery < 0 {
			want = ErrStuck
		}
		t.Run(fmt.Sprintf("mt=%d", mtEvery), func(t *testing.T) {
			bound := int64(maxQuietCycles(mtEvery) + 2)
			var took []time.Duration
			var cycles []int64
			for seed := int64(0); seed < 20; seed++ {
				m := New(Options{PEs: 4, Parallel: true, Seed: seed, MTEvery: mtEvery})
				start := time.Now()
				_, err := m.Eval(knot)
				took = append(took, time.Since(start))
				n := m.Stats().Cycles
				m.Close()
				cycles = append(cycles, n)
				if !errors.Is(err, want) {
					t.Errorf("seed %d: err = %v, want %v", seed, err, want)
				}
				if n > bound {
					t.Errorf("seed %d: %d cycles at return, want at most %d", seed, n, bound)
				}
			}
			slices.Sort(took)
			slices.Sort(cycles)
			t.Logf("time to verdict min / median / max: %v / %v / %v; cycles at return %d–%d (bound %d)",
				took[0], took[len(took)/2], took[len(took)-1], cycles[0], cycles[len(cycles)-1], bound)
		})
	}
}

// TestIdleParallelMachineRunsNoCycles: a parallel machine collects on work,
// not on a clock. Once an evaluation has returned on a quiescent machine and
// the cycle its last tasks made due has run, nothing executes and no cycle
// runs — at GCInterval 1 too, where a cycle's own marks would otherwise
// trigger the next. (Under the old pacing rule an idle machine ran one every
// 100 µs to 1 ms until Close: 50–66 in this window.)
func TestIdleParallelMachineRunsNoCycles(t *testing.T) {
	for _, interval := range []int{0, 1} {
		t.Run(fmt.Sprintf("interval=%d", interval), func(t *testing.T) {
			m := New(Options{PEs: 4, Parallel: true, GCInterval: interval})
			defer m.Close()
			// fib 15 is some 70 000 tasks: the loop runs cycles during the
			// evaluation.
			if _, err := m.Eval("let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15"); err != nil {
				t.Fatal(err)
			}
			// Tasks still running as Eval returned can make one more cycle
			// due; run it, or wait out the loop's, before the window opens.
			m.mach.WaitQuiescent()
			m.collector.RunDue()
			before := m.Stats().Cycles
			time.Sleep(50 * time.Millisecond)
			if after := m.Stats().Cycles; after != before {
				t.Errorf("an idle machine ran %d cycles in 50 ms", after-before)
			}
		})
	}
}

// TestCloseDuringQuietCycle: Close lands while the evaluation runs the cycles
// that decide its verdict. Eval returns ErrClosed or the verdict, Close
// returns, and nothing is left running — a cycle Stop waits out finishes, and
// no cycle starts on a machine being halted.
func TestCloseDuringQuietCycle(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel machines")
	}
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		m := New(Options{PEs: 4, Parallel: true, Seed: int64(i), MTEvery: 4, Timeout: 10 * time.Second})
		errc := make(chan error, 1)
		go func() {
			_, err := m.Eval(knot)
			errc <- err
		}()
		// Staggered from the evaluation's start, where it is still setting
		// up, to past its verdict, eight cycles on: a busy wait, finer than
		// a sleep.
		for start := time.Now(); time.Since(start) < time.Duration(i*i)*50*time.Nanosecond; {
		}
		closed := make(chan struct{})
		go func() {
			m.Close()
			close(closed)
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrDeadlock) {
				t.Errorf("run %d: Eval returned %v, want ErrClosed or ErrDeadlock", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: Eval still running 5 s after Close began", i)
		}
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d: Close still running after 5 s", i)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before, %d after", before, after)
	}
}

// TestLeftoverSpeculationIsCollected: the value does not need the runaway it
// speculated, and the evaluation returns without it. With no Close, the
// collection loop still runs on the runaway's own work, so its graph is
// reclaimed and the machine falls quiet, well within a bounded number of
// executed tasks.
func TestLeftoverSpeculationIsCollected(t *testing.T) {
	m := New(Options{PEs: 4, Parallel: true})
	defer m.Close()
	v, err := m.Eval("let loop n = loop (n + 1) in spec (loop 0) 5")
	if err != nil || v.Int != 5 {
		t.Fatalf("Eval = %v, %v; want 5", v, err)
	}
	select {
	case <-m.mach.Quiet():
	case <-time.After(10 * time.Second):
		t.Fatalf("still busy after 10 s: %d tasks executed, %d cycles",
			m.Stats().TasksExecuted, m.Stats().Cycles)
	}
	m.collector.Pause() // the cycle that stopped the runaway may still be closing
	m.collector.Resume()
	s := m.Stats()
	// The first cycle comes GCInterval steps in (a task of the runaway runs
	// 17); the runaway runs on while it marks, and what it allocates
	// meanwhile is not this cycle's garbage.
	const interval = 20000
	if s.Cycles == 0 || s.Reclaimed == 0 {
		t.Fatalf("quiet, but the runaway was not collected: %d cycles, %d reclaimed", s.Cycles, s.Reclaimed)
	}
	if s.TasksExecuted > 4*interval {
		t.Errorf("quiet after %d tasks, want at most %d", s.TasksExecuted, 4*interval)
	}
	if live := s.Allocations - s.Reclaimed; live > 2*interval {
		t.Errorf("%d vertices live at quiescence, want at most %d", live, 2*interval)
	}
	t.Logf("quiet after %d tasks and %d cycles; %d vertices allocated, %d reclaimed",
		s.TasksExecuted, s.Cycles, s.Allocations, s.Reclaimed)
}

// TestCloseWakesParallelEval: Close during a parallel evaluation ends it with
// ErrClosed at once, and returns. (The evaluation used to wait out its whole
// Timeout and report ErrBudget; and Close, which lets the PEs drain their
// pools, never returned under a program that refills them for ever.)
func TestCloseWakesParallelEval(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel machine")
	}
	m := New(Options{PEs: 4, Parallel: true, Timeout: 3 * time.Second})
	errc := make(chan error, 1)
	go func() {
		_, err := m.Eval(runaway)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the evaluation get going
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		m.Close()
		close(closed)
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Eval returned %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Errorf("Eval still running %v after Close began", time.Since(start))
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close still running after 10 s")
	}
	// The runaway's queued tasks were abandoned, not run.
	if n := m.mach.Inflight(); n != 0 {
		t.Errorf("Inflight() = %d after Close, want 0", n)
	}
}
