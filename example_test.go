package dgr_test

// The runnable examples: `go test -run Example -v .` runs them and compares
// what they print. They are seeded machines, so every line is reproducible;
// the lines printed are the ones a change to scheduling or marking grain must
// not move (values, verdicts, what was recovered), not task counts.

import (
	"errors"
	"fmt"
	"log"
	"time"

	"dgr"
)

// Compile a functional program to a combinator graph, reduce it across four
// processing elements, and let the collector reclaim garbage while it runs.
func Example() {
	// A machine with 4 PEs. Deterministic mode: reproducible scheduling,
	// collector cycles interleaved with reduction by Eval.
	m := dgr.New(dgr.Options{PEs: 4, Seed: 42})
	defer m.Close()

	v, err := m.Eval("2 + 3 * 4")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("2 + 3 * 4 =", v)

	// Recursion via letrec (compiled to a cyclic combinator graph — the
	// collector reclaims cycles, so this is safe to churn).
	v, err = m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 20`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fib 20 =", v)

	// Lazy infinite structures work because reduction is demand-driven.
	vals, err := m.EvalList(`
		let nats = let from n = n : from (n + 1) in from 0;
		    take n xs = if n == 0 then [] else head xs : take (n - 1) (tail xs)
		in take 8 (tail nats)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tail of naturals:", vals)

	// The machine's counters show the distributed execution and the endless
	// mark/restructure cycles at work.
	s := m.Stats()
	fmt.Println("marking ran beside reduction:", s.MarkVisits > 0 && s.ReductionTasks > 0)
	fmt.Println("PEs exchanged messages:", s.RemoteMessages > 0)
	fmt.Println("garbage was reclaimed during the run:", s.Cycles > 1 && s.Reclaimed > 0)
	// Output:
	// 2 + 3 * 4 = 14
	// fib 20 = 6765
	// tail of naturals: [1 2 3 4 5 6 7 8]
	// marking ran beside reduction: true
	// PEs exchanged messages: true
	// garbage was reclaimed during the run: true
}

// Deadlock detection: Figure 3-1's x = x + 1, found by running the M_T marking
// process (from the task pools) before M_R (from the root) and reporting
// DL_v = R_v − T. "A deadlocked system generally does no harm, it just never
// does any good" (§6) — and one deadlocked computation must not take the
// machine down (footnote 5): the same machine keeps serving healthy programs.
func ExampleMachine_Eval_deadlock() {
	m := dgr.New(dgr.Options{
		PEs:     2,
		Seed:    3,
		MTEvery: 1, // run deadlock detection every GC cycle
	})
	defer m.Close()

	// The knot: x depends vitally on its own value.
	_, err := m.Eval("let x = x + 1 in x")
	fmt.Println("x = x + 1:", err, "— is ErrDeadlock:", errors.Is(err, dgr.ErrDeadlock))

	// Mutual deadlock: two values each awaiting the other.
	_, err = m.Eval("let a = b + 1; b = a + 1 in a")
	fmt.Println("mutual knot:", err)

	// The machine is unharmed: healthy programs still run to completion.
	v, err := m.Eval("let fac n = if n == 0 then 1 else n * fac (n-1) in fac 6")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("machine still healthy: fac 6 =", v)

	s := m.Stats()
	fmt.Printf("M_T ran in %d of %d GC cycles\n", s.MTRuns, s.Cycles)
	// Output:
	// x = x + 1: dgr: computation deadlocked: 2 vertices — is ErrDeadlock: true
	// mutual knot: dgr: computation deadlocked: 4 vertices
	// machine still healthy: fac 6 = 720
	// M_T ran in 4 of 4 GC cycles
}

// Deadlock recovery via is-bottom (footnote 5): the probe demands its operand
// vitally. If the operand delivers a value, the probe is false. If instead the
// deadlock detector finds the probe itself in DL_v — it awaits a value that
// can never arrive — the collector resolves the probe to true, the program
// takes the recovery branch, and the dead subgraph is reclaimed as garbage.
// The paper's caveat applies: is-bottom is non-monotonic, so dgr resolves
// probes only from the stable DL_v = R_v − T set, never speculatively.
func ExampleMachine_Eval_recovery() {
	m := dgr.New(dgr.Options{
		PEs:     2,
		Seed:    5,
		MTEvery: 1, // probe resolution needs the deadlock detector
	})
	defer m.Close()

	v, err := m.Eval(`
		let x = x + 1                  -- Figure 3-1's knot
		in if isbottom x
		   then 0 - 1                  -- recovery branch
		   else x`)
	if err != nil {
		log.Fatalf("recovery failed: %v", err)
	}
	fmt.Println("guarded deadlocked computation =", v)

	// A healthy computation behind the same guard is unaffected.
	v, err = m.Eval(`
		let y = 6 * 7
		in if isbottom y then 0 - 1 else y`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("guarded healthy computation =", v)
	fmt.Printf("deadlocked vertices found: %d (the probe among them); recorded once it was resolved and forgotten: %d\n",
		m.Stats().DeadlockedFound, len(m.Deadlocked()))
	// Output:
	// guarded deadlocked computation = -1
	// guarded healthy computation = 42
	// deadlocked vertices found: 4 (the probe among them); recorded once it was resolved and forgotten: 3
}

// Speculative evaluation (§3.2): with SpeculativeIf every conditional eagerly
// evaluates both branches while its predicate is still being computed. When
// the predicate resolves, the losing branch is dereferenced and its in-flight
// tasks are irrelevant — here non-terminating: the else branch of fac at
// n = 0 speculates fac(-1), fac(-2), ... Only the restructure phase, deleting
// tasks whose destination is garbage (Property 6), keeps the machine sane.
func ExampleOptions_speculativeIf() {
	src := `let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 10`
	m := dgr.New(dgr.Options{
		PEs:           4,
		Seed:          7,
		SpeculativeIf: true,
		GCInterval:    4000, // collect aggressively: speculation is hungry
	})
	defer m.Close()

	v, err := m.Eval(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("speculative fac 10 =", v)

	// The answer is out, but speculative tasks spawned along the way are
	// still in the pools, all of them now irrelevant. Alternate execution
	// and GC cycles: each restructure deletes the tasks whose destinations
	// became garbage, until the machine drains.
	for rounds := 0; !m.Quiescent() && rounds < 500; rounds++ {
		m.Pump(4000)
		m.RunGC()
	}
	s := m.Stats()
	fmt.Println("drained:", m.Quiescent())
	fmt.Println("irrelevant tasks expunged:", s.Expunged > 0)
	fmt.Println("dereferenced branches reclaimed:", s.Reclaimed > 0)

	// The same program, demand-driven only.
	m2 := dgr.New(dgr.Options{PEs: 4, Seed: 7})
	defer m2.Close()
	if _, err := m2.Eval(src); err != nil {
		log.Fatal(err)
	}
	fmt.Println("speculation did extra work:", s.ReductionTasks > m2.Stats().ReductionTasks)
	// Output:
	// speculative fac 10 = 3628800
	// drained: true
	// irrelevant tasks expunged: true
	// dereferenced branches reclaimed: true
	// speculation did extra work: true
}

// Parallel reduction: one goroutine per PE plus a collection loop that runs a
// cycle every GCInterval tasks, with `par` exposing parallelism to the reducer. The graph is partitioned across
// PEs; a task whose destination lives on another partition is a remote
// message. (Its output is timing, so none is checked and `go test` compiles it
// without running it; the parallel stress tests run `par` programs.)
func ExampleOptions_parallel() {
	const src = `
let fib n = if n < 2 then n
            else let a = fib (n - 1);          -- shared subexpression: one vertex,
                     b = fib (n - 2)           -- evaluated once however many demand it
                 in par a b + a                -- par demands both halves in parallel
in fib 19`
	for _, pes := range []int{1, 2, 4, 8} {
		m := dgr.New(dgr.Options{PEs: pes, Parallel: true, Timeout: 2 * time.Minute})
		start := time.Now()
		v, err := m.Eval(src)
		if err != nil {
			log.Fatalf("pes=%d: %v", pes, err)
		}
		s := m.Stats()
		fmt.Printf("PEs=%d  fib 19 = %s  in %v  tasks=%d remote=%d reclaimed=%d\n",
			pes, v, time.Since(start).Round(time.Millisecond), s.TasksExecuted, s.RemoteMessages, s.Reclaimed)
		m.Close()
	}
}
