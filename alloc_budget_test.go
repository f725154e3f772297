package dgr

import (
	"runtime"
	"testing"
)

// TestTaskPathAllocBudget pins what the per-task path (sched.execute →
// reduce.Engine.step* → core.Mutator → core.Marker) asks of the Go allocator:
// on a deterministic 4-PE machine, a warm second Eval of fib 15 may make at
// most the budgeted number of heap allocations per executed reduction task.
// (Reduction tasks, not all tasks: how many marks and returns run as tasks is
// the collector's choice of grain, and a coarser grain must not read as more
// allocation.) The machine is deterministic, so the quotient repeats to within
// the Go runtime's own background allocations; the bounds sit ~25 % above the
// measured values (interp 0.17 — 11 750 mallocs, where 14 596 were made before
// the collector kept its buffers and ring.filter stopped copying to the heap,
// more than the bound now admits — and compiled 1.52). One scratch slice, map or closure per lock set, rewrite or reduction
// step costs at least 0.3 per task, so bringing any back trips the bound.
// What remains is growth of vertex-owned slices (Args, ReqKinds, Requested)
// and the front end's parse and compile of the source (DESIGN §8 names every
// site).
func TestTaskPathAllocBudget(t *testing.T) {
	const src = "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15"
	for _, tc := range []struct {
		engine string
		budget float64
	}{
		{"interp", 0.20},
		{"compiled", 1.90},
	} {
		t.Run(tc.engine, func(t *testing.T) {
			m := New(Options{PEs: 4, Seed: 1, Engine: tc.engine})
			defer m.Close()
			eval := func() {
				v, err := m.Eval(src)
				if err != nil {
					t.Fatal(err)
				}
				if v.Int != 610 {
					t.Fatalf("fib 15 = %v, want 610", v)
				}
			}
			eval() // warm: pools, arena segments and vertex slices reach size

			var before, after runtime.MemStats
			tasks := m.Stats().ReductionTasks
			runtime.ReadMemStats(&before)
			eval()
			runtime.ReadMemStats(&after)
			tasks = m.Stats().ReductionTasks - tasks
			if tasks == 0 {
				t.Fatal("no tasks executed")
			}
			perTask := float64(after.Mallocs-before.Mallocs) / float64(tasks)
			t.Logf("%s: %d mallocs over %d reduction tasks = %.2f per task (budget %.2f)",
				tc.engine, after.Mallocs-before.Mallocs, tasks, perTask, tc.budget)
			if perTask > tc.budget {
				t.Errorf("%s: %.2f heap allocations per reduction task, budget %.2f",
					tc.engine, perTask, tc.budget)
			}
		})
	}
}
