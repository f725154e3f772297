package dgr

import (
	"runtime"
	"testing"
)

// TestTaskPathAllocBudget pins what the per-task path (sched.execute →
// reduce.Engine.step* → core.Mutator → core.Marker) asks of the Go allocator:
// on a deterministic 4-PE machine, a warm second Eval of fib 15 may make at
// most the budgeted number of heap allocations per executed task. The machine
// is deterministic, so the quotient repeats to within the Go runtime's own
// background allocations; the bounds sit ~25 % above the measured values
// (interp 0.12, compiled 1.52). One scratch slice, map or closure per lock
// set, rewrite or reduction step costs at least 0.3 per task, so bringing any
// back trips the bound. What remains is growth of vertex-owned slices (Args,
// ReqKinds, Requested), the collector's per-cycle bookkeeping, and the front
// end's parse and compile of the source (DESIGN §8 names every site).
func TestTaskPathAllocBudget(t *testing.T) {
	const src = "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15"
	for _, tc := range []struct {
		engine string
		budget float64
	}{
		{"interp", 0.15},
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
			tasks := m.Stats().TasksExecuted
			runtime.ReadMemStats(&before)
			eval()
			runtime.ReadMemStats(&after)
			tasks = m.Stats().TasksExecuted - tasks
			if tasks == 0 {
				t.Fatal("no tasks executed")
			}
			perTask := float64(after.Mallocs-before.Mallocs) / float64(tasks)
			t.Logf("%s: %d mallocs over %d tasks = %.2f per task (budget %.2f)",
				tc.engine, after.Mallocs-before.Mallocs, tasks, perTask, tc.budget)
			if perTask > tc.budget {
				t.Errorf("%s: %.2f heap allocations per executed task, budget %.2f",
					tc.engine, perTask, tc.budget)
			}
		})
	}
}
