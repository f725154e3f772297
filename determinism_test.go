package dgr_test

// Seed-determinism regression tests: a deterministic machine with a fixed
// seed must execute the identical task sequence run after run — and, more
// importantly, across refactors of the data structures underneath the
// scheduler (the free-list allocator, the task-pool rings). The schedule
// recorder from the invariant-checker PR gives us the exact (pe, task)
// execution order; hashing it yields a digest that is stable across runs
// and brittle across any semantic change to scheduling, allocation order,
// or pool FIFO/band behavior. The golden digests below were recorded
// against the pre-rewrite append/re-slice pools and single-lock allocator;
// the sharded-allocator + ring-buffer implementation must reproduce them
// exactly.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"dgr"
	"dgr/internal/sched"
)

// scheduleDigest evaluates src on a fresh deterministic machine and returns
// an FNV-64a digest of the recorded execution schedule (every exec, cycle,
// and restructure event, in log order).
func scheduleDigest(t *testing.T, seed int64, pes int, src string, want int64) string {
	t.Helper()
	return engineScheduleDigest(t, seed, pes, "", src, want)
}

// engineScheduleDigest is scheduleDigest with an explicit engine selection
// (the compiled backend executes a different — but equally deterministic —
// task sequence, so it pins its own goldens).
func engineScheduleDigest(t *testing.T, seed int64, pes int, engine, src string, want int64) string {
	t.Helper()
	m := dgr.New(dgr.Options{
		PEs:            pes,
		Seed:           seed,
		Engine:         engine,
		RecordSchedule: true,
	})
	defer m.Close()
	return digestEval(t, m, src, want)
}

// digestEval evaluates src on a schedule-recording machine and digests the
// recorded schedule (shared with the obs integration tests, which assert
// instrumentation does not perturb it). A line a cycle's root entries join
// with it, as the ids and priorities of the cycle's roots: the digests were
// pinned when the log folded them into the cycle's line.
func digestEval(t *testing.T, m *dgr.Machine, src string, want int64) string {
	t.Helper()
	v, err := m.Eval(src)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if v.Int != want {
		t.Fatalf("eval = %v, want %d", v, want)
	}
	evs, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for i := 0; i < len(evs); i++ {
		e := evs[i]
		var roots []sched.Root
		for ; e.Op == sched.OpCycle && i+1 < len(evs) && evs[i+1].Op == sched.OpRoot; i++ {
			roots = append(roots, sched.Root{ID: evs[i+1].Dst, Prior: evs[i+1].Prior})
		}
		fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%v|%v\n",
			e.Op, e.Seq, e.PE, e.Kind, e.Src, e.Dst, e.Req, e.Ctx, e.Prior, e.Epoch, roots, e.MT)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

const detFib = `let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 12`

// goldenSchedules pins the exact schedule digest for a handful of
// (seed, pes) configurations. Regenerate (only when a change is *supposed*
// to alter scheduling semantics) by running this test and copying the
// reported digests.
var goldenSchedules = map[string]string{
	"seed=42/pes=1": "87219842d0989d26",
	"seed=42/pes=4": "655e266df0f9883e",
	"seed=7/pes=3":  "e0b3b4cd9196fc38",
}

// TestScheduleDeterminismGolden asserts that fixed-seed deterministic runs
// execute exactly the recorded golden task sequence.
func TestScheduleDeterminismGolden(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		pes  int
	}{
		{"seed=42/pes=1", 42, 1},
		{"seed=42/pes=4", 42, 4},
		{"seed=7/pes=3", 7, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := scheduleDigest(t, tc.seed, tc.pes, detFib, 144)
			want := goldenSchedules[tc.name]
			if want == "" {
				t.Fatalf("no golden digest recorded; got %s", got)
			}
			if got != want {
				t.Errorf("schedule digest = %s, want %s (the deterministic task sequence changed)", got, want)
			}
		})
	}
}

// goldenCompiledSchedules pins the compiled engine's schedule digests for
// the same configurations. The compiled backend reduces fib in far fewer,
// coarser task executions (one supercombinator body per task), so these
// digests differ from the interpreted goldens by design — but they are
// just as brittle against any change to scheduling, allocation order, or
// the compiler's instruction selection. A partition allocates only vertices
// of its own, and the compiled fib 12 builds and reduces on partition 0
// alone, so it runs the same schedule on PE 0 at every PE count and seed.
var goldenCompiledSchedules = map[string]string{
	"seed=42/pes=1": "4696e0526a054a54",
	"seed=42/pes=4": "4696e0526a054a54",
	"seed=7/pes=3":  "4696e0526a054a54",
}

// TestScheduleDeterminismCompiledGolden pins the compiled engine's
// deterministic task sequence exactly as the interpreted goldens do.
func TestScheduleDeterminismCompiledGolden(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		pes  int
	}{
		{"seed=42/pes=1", 42, 1},
		{"seed=42/pes=4", 42, 4},
		{"seed=7/pes=3", 7, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := engineScheduleDigest(t, tc.seed, tc.pes, dgr.EngineCompiled, detFib, 144)
			want := goldenCompiledSchedules[tc.name]
			if want == "" {
				t.Fatalf("no golden digest recorded; got %s", got)
			}
			if got != want {
				t.Errorf("compiled schedule digest = %s, want %s (the deterministic task sequence changed)", got, want)
			}
		})
	}
}

// TestScheduleDeterminismRepeatable asserts run-to-run stability (two fresh
// machines, same seed, identical schedules) independent of the goldens.
func TestScheduleDeterminismRepeatable(t *testing.T) {
	a := scheduleDigest(t, 1234, 4, detFib, 144)
	b := scheduleDigest(t, 1234, 4, detFib, 144)
	if a != b {
		t.Fatalf("same seed produced different schedules: %s vs %s", a, b)
	}
}

// goldenCollectingSchedules pins schedules that have a collector in them.
// fib 12 finishes inside the default GCInterval of 20 000 steps, so the
// digests above hold no mark task at all; these run a cycle every 500 steps
// with M_T in every cycle, which puts marking-cycle starts with their M_T root
// sets, every mark and return that ran as a task (cut arcs, and one
// continuation per partition a phase's roots fall on or per budget a
// partition's list spends), every mark and return a drain took in from its
// pool, and the restructure events inside the digest. What a partition's list
// marks inline is not in the log — it shows in what the next task finds.
var goldenCollectingSchedules = map[string]string{
	"interp/seed=42/pes=4":   "31491a3a63fca218",
	"interp/seed=7/pes=3":    "883e37020caaf6f1",
	"compiled/seed=42/pes=4": "c81574a33b4b1e47",
	"compiled/seed=7/pes=3":  "c81574a33b4b1e47",
}

func collectingOptions(engine string, seed int64, pes int) dgr.Options {
	return dgr.Options{PEs: pes, Seed: seed, Engine: engine,
		GCInterval: 500, MTEvery: 1}
}

// TestScheduleDeterminismCollectingGolden pins the deterministic task
// sequence of runs that collect while they reduce, for both engines, and —
// without the recorder, which could itself hide a difference — that two such
// runs of one seed end with identical counters.
func TestScheduleDeterminismCollectingGolden(t *testing.T) {
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		for _, tc := range []struct {
			seed int64
			pes  int
		}{{42, 4}, {7, 3}} {
			name := fmt.Sprintf("%s/seed=%d/pes=%d", engine, tc.seed, tc.pes)
			t.Run(name, func(t *testing.T) {
				opts := collectingOptions(engine, tc.seed, tc.pes)
				opts.RecordSchedule = true
				m := dgr.New(opts)
				defer m.Close()
				got := digestEval(t, m, detFib, 144)
				if s := m.Stats(); s.Cycles < 3 || s.MTRuns < 3 || s.MarkVisits <= s.MarkTasks {
					t.Fatalf("the run pins too little marking: %d cycles, %d M_T runs, %d mark visits in %d mark tasks",
						s.Cycles, s.MTRuns, s.MarkVisits, s.MarkTasks)
				}
				if want := goldenCollectingSchedules[name]; got != want {
					t.Errorf("schedule digest = %s, want %s (the deterministic task sequence changed)", got, want)
				}

				var stats [2]dgr.Stats
				for i := range stats {
					m := dgr.New(collectingOptions(engine, tc.seed, tc.pes))
					if v, err := m.Eval(detFib); err != nil || v.Int != 144 {
						t.Fatalf("eval = %v, %v", v, err)
					}
					stats[i] = m.Stats()
					m.Close()
				}
				if stats[0] != stats[1] {
					t.Errorf("same seed, different counters:\n%v\n%v", stats[0], stats[1])
				}
			})
		}
	}
}

// preInlineSchedules are the schedules at inline budget 0, where the engine
// spawns every continuation as a Reduce task and every demand and result as
// itself. They were the digests every golden above had before the reduction
// engine continued a step's reduction in place (the Reduce task each
// continuation was is now an inline step, so every schedule moved). The
// interp rows moved once since, with the goldens above, when the engine came
// to recognise a local partial application in place instead of demanding it:
// that rule holds at every budget (DESIGN §8, "A partial application is a
// value"). Every row moved when a partition whose free list runs dry came
// to take a fresh block of ids instead of a sibling's vertex (DESIGN §8, "A
// partition that runs dry takes a fresh block"): the ids are renamed, and
// the collecting rows' schedules changed with them.
var preInlineSchedules = []struct {
	collecting bool
	engine     string
	seed       int64
	pes        int
	digest     string
}{
	{false, dgr.EngineInterp, 42, 1, "cc6862ce96a74fe5"},
	{false, dgr.EngineInterp, 42, 4, "55c76a221c2dc801"},
	{false, dgr.EngineInterp, 7, 3, "933455210ca950f5"},
	{false, dgr.EngineCompiled, 42, 1, "a0d4a7ff2b27d746"},
	{false, dgr.EngineCompiled, 42, 4, "a0d4a7ff2b27d746"},
	{false, dgr.EngineCompiled, 7, 3, "a0d4a7ff2b27d746"},
	{true, dgr.EngineInterp, 42, 4, "0f3334da8e781b58"},
	{true, dgr.EngineInterp, 7, 3, "4b6fc0f58504cee3"},
	{true, dgr.EngineCompiled, 42, 4, "4e66af6e8ed4ac9c"},
	{true, dgr.EngineCompiled, 7, 3, "4e66af6e8ed4ac9c"},
}

// TestScheduleAtBudgetZeroIsPreInline: with no step run in place, the
// engine's schedules are the ones it ran before it could, but for the local
// partial applications it recognises in place (preInlineSchedules).
func TestScheduleAtBudgetZeroIsPreInline(t *testing.T) {
	for _, tc := range preInlineSchedules {
		t.Run(fmt.Sprintf("collecting=%v/%s/seed=%d/pes=%d", tc.collecting, tc.engine, tc.seed, tc.pes), func(t *testing.T) {
			opts := dgr.Options{PEs: tc.pes, Seed: tc.seed, Engine: tc.engine}
			if tc.collecting {
				opts = collectingOptions(tc.engine, tc.seed, tc.pes)
			}
			opts.RecordSchedule = true
			m := dgr.New(opts)
			defer m.Close()
			dgr.SetInlineBudget(m, 0)
			if got := digestEval(t, m, detFib, 144); got != tc.digest {
				t.Errorf("schedule digest at budget 0 = %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestIsBottomProbesResolveInVerdictOrder: three is-bottom probes deadlock
// together, and the collector resolves them in one verdict. The results they
// spawn must go out in the verdict's order, not a map's, so the seeded
// schedule is the same on every run.
func TestIsBottomProbesResolveInVerdictOrder(t *testing.T) {
	const src = `let x = x + 1; y = y + 2; z = z + 3
		in (if isbottom x then 1 else 0) + (if isbottom y then 10 else 0) + (if isbottom z then 100 else 0)`
	digests := map[string]int{}
	for i := 0; i < 30; i++ {
		m := dgr.New(dgr.Options{PEs: 2, Seed: 11, MTEvery: 1, RecordSchedule: true})
		digests[digestEval(t, m, src, 111)]++
		m.Close()
	}
	if len(digests) != 1 {
		t.Fatalf("30 runs of one seed gave %d schedule digests: %v", len(digests), digests)
	}
}
