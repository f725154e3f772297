package dgr

import (
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestTaskPathAllocBudget pins what the per-task path (sched.execute →
// reduce.Engine.step* → core.Mutator → core.Marker) asks of the Go allocator:
// on a deterministic 4-PE machine, a warm second Eval of fib 15 may make at
// most the budgeted number of heap allocations per reduction step: a reduction
// task, or a step one ran in place (InlineSteps), so the bound covers the same
// work however much of it runs inside one task. (Reduction steps, not all
// tasks: how many marks and returns run as tasks is the collector's choice of
// grain, and a coarser grain must not read as more allocation.) The machine is
// deterministic, so the quotient repeats to within the Go runtime's own
// background allocations; the bounds sit ~25 % above the measured values
// (interp 0.0032 — 229 mallocs — and compiled 0.021 — 205, before steps ran
// in place; ~175 and ~224 mallocs since, and ~111 and ~194 since a segment
// is a block and a partition's segments come in chunks).
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
			steps := func() int64 { s := m.Stats(); return s.ReductionTasks + s.InlineSteps }
			n := steps()
			runtime.ReadMemStats(&before)
			eval()
			runtime.ReadMemStats(&after)
			n = steps() - n
			if n == 0 {
				t.Fatal("no tasks executed")
			}
			perStep := float64(after.Mallocs-before.Mallocs) / float64(n)
			t.Logf("%s: %d mallocs over %d reduction steps = %.3f per step (budget %.3f)",
				tc.engine, after.Mallocs-before.Mallocs, n, perStep, tc.budget)
			if perStep > tc.budget {
				t.Errorf("%s: %.3f heap allocations per reduction step, budget %.3f",
					tc.engine, perStep, tc.budget)
			}
		})
	}
}

// TestColdEvalByteBudget pins the bytes a one-shot machine asks of the Go
// allocator: New, one Eval of fac 12 and Close on a default seeded machine.
// Most of it is the store segments the program's vertices reach, so the
// bound follows the vertex's size and the segment layout: a segment is one
// partition's block of 64 vertices, 6 152 bytes at 96 bytes a vertex, which
// with the 8-byte header Go puts on a large pointerful object costs the
// 6 528-byte size class; a partition's segments come in chunks of 1, 2, 4,
// then 8 (6 528, 13 568, 27 264 and 57 344 bytes). fac 12 reaches three
// blocks, about 20 KiB of segments, and the rest is the machine, the front
// end and a 256-byte first segment directory: 31.9 KiB in all. The bound
// sits ~25 % above. At 120 bytes a vertex a segment cost the 8 KiB class and
// the same run read 36 KiB (47 with an 8 KiB directory); a segment of 512
// vertices of all four partitions, 60 KiB at 120 bytes (108 KiB for the
// 216-byte vertex), read 79 KiB; with partition 3 paying a whole one for the
// top id alone, 145 KiB.
func TestColdEvalByteBudget(t *testing.T) {
	const (
		src    = "let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 12"
		budget = 40 << 10
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
// log, reads live gauges when asked, and starts no goroutine; the flight
// view's executions are the execution record's, which allocates as it fills.
// New read ~76 KiB while obs kept exec rings of its own, 16 KiB a PE; a
// 512-sample ring per PE plus one for the machine, and the goroutine that
// filled them, took it to 237 KB.
//
// The goroutines counted are those alive after New that were not before it,
// told apart by id, so one ending meanwhile cannot offset one starting. A
// difference of runtime.NumGoroutine once read "off 6, on 5" in a
// whole-package run: a parked PE's timed wait ran an AfterFunc, whose
// function runs on a goroutine of its own ("created by time.goFunc"), and
// one was alive in a count's window. The wait now uses a timer's channel.
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

	// started returns what created each goroutine New started.
	started := func(obs bool) (created []string) {
		was := goroutineCreators()
		m := New(Options{PEs: 4, Parallel: true, Obs: obs})
		defer m.Close()
		for id, by := range goroutineCreators() {
			if _, old := was[id]; !old {
				created = append(created, by)
			}
		}
		slices.Sort(created)
		return created
	}
	off, on := started(false), started(true)
	t.Logf("a parallel machine starts %d goroutines with Obs off, %d with it on", len(off), len(on))
	if len(on) != len(off) {
		t.Errorf("Obs on starts %d goroutines, off %d: the observability layer must start none\noff: %q\non:  %q",
			len(on), len(off), off, on)
	}
}

// goroutineCreators maps each live goroutine's id to the function that
// created it, the "created by" frame of its stack.
func goroutineCreators() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		_, by, _ := strings.Cut(g, "\ncreated by ")
		by, _, _ = strings.Cut(by, " in goroutine ")
		by, _, _ = strings.Cut(by, "\n")
		out[id] = by
	}
	return out
}

// TestRecordBudget pins what the execution record costs: a seeded 4-PE
// fib 16 with RecordSchedule may allocate at most perEvent bytes per
// recorded event beyond the same run without it. An entry is 40 bytes and a
// lane allocates 128 at a time, so the reading is the entry plus each
// lane's unfilled last chunk; the bound sits ~25 % above it. A recorder
// that appended a 144-byte event per execution to one slice under one mutex
// read ~480 bytes an event, the slice's doubling copies included.
func TestRecordBudget(t *testing.T) {
	const (
		src      = "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 16"
		perEvent = 60
	)
	run := func(record bool) (allocated uint64, events int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := New(Options{PEs: 4, Seed: 1, RecordSchedule: record})
		defer m.Close()
		v, err := m.Eval(src)
		runtime.ReadMemStats(&after)
		if err != nil || v.Int != 987 {
			t.Fatalf("fib 16 = %v, %v", v, err)
		}
		if record {
			ev, err := m.ScheduleEvents()
			if err != nil {
				t.Fatal(err)
			}
			events = len(ev)
		}
		return after.TotalAlloc - before.TotalAlloc, events
	}
	plain, _ := run(false)
	recorded, events := run(true)
	per := float64(recorded-plain) / float64(events)
	t.Logf("census: execution record, seeded 4-PE fib 16: %d events, %d KiB beyond the run's %d KiB = %.1f bytes an event (budget %d)",
		events, (recorded-plain)>>10, plain>>10, per, perEvent)
	if per > perEvent {
		t.Errorf("recording allocated %.1f bytes per recorded event, budget %d", per, perEvent)
	}
}
