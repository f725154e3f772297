package dgr

import (
	"runtime"
	"testing"
	"time"
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
// bound follows the vertex's size and the segment layout: at 120 bytes a
// segment of 512 vertices takes 64 KiB (the 216-byte vertex's took 112 KiB),
// and the default Capacity ends on a segment boundary, so partition 3 of the
// default 4-PE machine no longer pays a whole segment for the top id alone
// (145 KiB when it did). The bound sits ~25 % above the measured 79 KiB.
func TestColdEvalByteBudget(t *testing.T) {
	const (
		src    = "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 12"
		budget = 100 << 10
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

// TestObsMachineBudget pins what the observability layer adds to a machine
// that does not run: the bytes New allocates for a 4-PE machine with Obs on,
// and the goroutines a parallel machine starts. The handle keeps one event
// log and per-PE exec rings, reads live gauges when asked, and starts no
// goroutine. New read ~76 KiB; a 512-sample ring per PE plus one for the
// machine, and the goroutine that filled them, took it to 237 KB.
func TestObsMachineBudget(t *testing.T) {
	const budget = 100 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(Options{PEs: 4, Obs: true})
	runtime.ReadMemStats(&after)
	m.Close()
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("New, 4 PEs, Obs on: %d KiB in %d objects (budget %d KiB)",
		bytes>>10, after.Mallocs-before.Mallocs, budget>>10)
	if bytes > budget {
		t.Errorf("New with Obs on allocated %d KiB, budget %d KiB", bytes>>10, budget>>10)
	}

	// Each try waits for the machine's goroutines to end after Close, so
	// that the next one starts from a settled count; one that ends during a
	// try can only lower that try's reading, so the most of three counts.
	started := func(obs bool) int {
		most := 0
		for range 3 {
			n := runtime.NumGoroutine()
			m := New(Options{PEs: 4, Parallel: true, Obs: obs})
			most = max(most, runtime.NumGoroutine()-n)
			m.Close()
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		}
		return most
	}
	off, on := started(false), started(true)
	t.Logf("a parallel machine starts %d goroutines with Obs off, %d with it on", off, on)
	if on != off {
		t.Errorf("Obs on starts %d goroutines, off %d: the observability layer must start none", on, off)
	}
}
