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
// measured values (interp 0.0032 — 229 mallocs — and compiled 0.021 — 205).
// A vertex keeps its first two args and first requester inline, and a
// larger set borrows a recycled overflow record, so wiring one allocates
// nothing; before, the edge arrays made the warm eval 11 727 mallocs (0.16)
// and 15 003 (1.52). One scratch slice, map or closure per lock set,
// rewrite or reduction step costs at least 0.3 per task, so bringing any
// back trips the bound, and so would edge arrays on the heap. What remains
// is the front end's parse and compile of the source, and the odd new
// overflow record or store segment when a run reaches further than the
// last (DESIGN §8 names every site).
func TestTaskPathAllocBudget(t *testing.T) {
	const src = "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15"
	for _, tc := range []struct {
		engine string
		budget float64
	}{
		{"interp", 0.004},
		{"compiled", 0.026},
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
			t.Logf("%s: %d mallocs over %d reduction tasks = %.3f per task (budget %.3f)",
				tc.engine, after.Mallocs-before.Mallocs, tasks, perTask, tc.budget)
			if perTask > tc.budget {
				t.Errorf("%s: %.3f heap allocations per reduction task, budget %.3f",
					tc.engine, perTask, tc.budget)
			}
		})
	}
}

// TestColdEvalByteBudget pins the bytes a one-shot machine asks of the Go
// allocator: New, one Eval of fac 12 and Close on a default seeded machine.
// Most of it is the store segments the program's vertices reach, so the
// bound follows the vertex's size: at 120 bytes a segment of 512 vertices
// takes 64 KiB, and the 216-byte vertex's took 112 KiB, which would put this
// run at 243 KiB, over the bound. The bound sits ~25 % above the measured
// 145 KiB.
func TestColdEvalByteBudget(t *testing.T) {
	const (
		src    = "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 12"
		budget = 180 << 10
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(Options{})
	v, err := m.Eval(src)
	m.Close()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 479001600 {
		t.Fatalf("fac 12 = %v, want 479001600", v)
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("cold fac 12: %d KiB allocated (budget %d KiB)", bytes>>10, budget>>10)
	if bytes > budget {
		t.Errorf("cold fac 12 allocated %d KiB, budget %d KiB", bytes>>10, budget>>10)
	}
}
