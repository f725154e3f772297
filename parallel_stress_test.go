package dgr

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"dgr/internal/fabric"
	"dgr/internal/workload"
)

// assertNoRuntimeErrors fails when an evaluation that came to its value left
// a runtime error behind. None of the programs these stress tests run can
// raise one, needed or not, so a recorded error is a reduction step that
// acted on a vertex another PE had since rewritten ("operand vN has kind ind,
// want int" was one) — silent otherwise, since a delivered value wins.
func assertNoRuntimeErrors(t *testing.T, m *Machine, what string) {
	t.Helper()
	if errs := m.RuntimeErrors(); len(errs) != 0 {
		t.Errorf("%s: evaluated, but recorded runtime errors: %v", what, errs)
	}
}

// TestParallelStress runs the corpus concurrently on parallel machines —
// PE goroutines, a background collector, and Eval all racing — primarily
// as a race-detector workload.
func TestParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	programs := []string{"fac", "sumsquares", "churn"}
	var wg sync.WaitGroup
	for i, name := range programs {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			p := workload.Programs[name]
			m := New(Options{
				PEs:      4,
				Parallel: true,
				MTEvery:  2,
				Timeout:  2 * time.Minute,
				Capacity: 1 << 16,
			})
			defer m.Close()
			v, err := m.Eval(p.Src)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if v.Int != p.Want {
				t.Errorf("%s = %v, want %d", name, v, p.Want)
			}
			assertNoRuntimeErrors(t, m, name)
		}(i, name)
	}
	wg.Wait()
}

// TestParallelSpeculativeStress exercises the hairiest interleaving:
// speculative reduction, cooperating mutator primitives, and continuous
// background collection, all in parallel mode.
func TestParallelSpeculativeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	m := New(Options{
		PEs:           4,
		Parallel:      true,
		SpeculativeIf: true,
		MTEvery:       2,
		Timeout:       2 * time.Minute,
		Capacity:      1 << 18,
	})
	defer m.Close()
	v, err := m.Eval("let fac n = if n == 0 then 1 else n * fac (n - 1) in fac 9")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 362880 {
		t.Fatalf("fac 9 = %v", v)
	}
	assertNoRuntimeErrors(t, m, "speculative fac 9")
}

// TestParallelRepeatedEvals reuses one parallel machine for many programs
// back to back, checking the collector keeps the heap bounded. A round is
// some 250–350 tasks and 80–95 vertices, so a cycle every 500 tasks keeps no
// more than three rounds' leavings in use; never collected, the heap would
// pass 800 by the tenth. Each round is judged as its Eval returns: a cycle its
// tasks made due has run by then, whether or not the collection loop's
// goroutine got a CPU for it.
func TestParallelRepeatedEvals(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const bound = 400
	m := New(Options{PEs: 4, Parallel: true, Capacity: 1 << 16, Timeout: 2 * time.Minute, GCInterval: 500})
	defer m.Close()
	for i := 0; i < 10; i++ {
		src := fmt.Sprintf("let fac n = if n == 0 then 1 else n * fac (n - 1) in fac %d", 5+i%3)
		if _, err := m.Eval(src); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		assertNoRuntimeErrors(t, m, fmt.Sprintf("round %d", i))
		if inUse := m.TotalVertices() - m.FreeVertices(); inUse > bound {
			t.Errorf("round %d: %d vertices in use, want at most %d", i, inUse, bound)
		}
	}
	s := m.Stats()
	if s.Reclaimed == 0 {
		t.Fatalf("repeated evals should have reclaimed garbage (%d cycles)", s.Cycles)
	}
	// Nothing may ever be falsely reported deadlocked: every program
	// completed.
	if s.DeadlockedFound != 0 {
		t.Fatalf("false deadlocks on completed computations: %d", s.DeadlockedFound)
	}
}

// TestParallelFalseDeadlockStress hammers the deadlock detector's historic
// racy window: parallel machines with M_T on every cycle and a cycle after
// every task the PEs execute, evaluating live programs to completion over
// and over. Every program terminates, so any ErrDeadlock — or any nonzero
// DeadlockedFound — is a false verdict: the M_T snapshot raced a reduction
// or an in-flight delivery and the two-phase confirmation failed to retract
// it. Scaled down, never skipped, under -short: this is the standing
// regression surface for the false-deadlock race.
func TestParallelFalseDeadlockStress(t *testing.T) {
	rounds := 30
	if testing.Short() {
		rounds = 6
	}
	want := map[int]int64{9: 34, 10: 55, 11: 89}
	var cycles []int64
	for i := 0; i < rounds; i++ {
		n := 9 + i%3
		m := New(Options{
			PEs:        4,
			Parallel:   true,
			MTEvery:    1,
			Seed:       int64(i),
			GCInterval: 1, // continuous collection: maximize snapshot/mutator overlap
			Timeout:    2 * time.Minute,
			Capacity:   1 << 14,
		})
		src := fmt.Sprintf("let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib %d", n)
		v, err := m.Eval(src)
		s := m.Stats()
		m.Close()
		if err != nil {
			t.Fatalf("round %d: %v (DeadlockedFound=%d DeadlockRetracted=%d)",
				i, err, s.DeadlockedFound, s.DeadlockRetracted)
		}
		if v.Int != want[n] {
			t.Fatalf("round %d: fib %d = %v, want %d", i, n, v, want[n])
		}
		assertNoRuntimeErrors(t, m, fmt.Sprintf("round %d", i))
		if s.DeadlockedFound != 0 {
			t.Fatalf("round %d: confirmed deadlock verdict on a completed run (found=%d retracted=%d)",
				i, s.DeadlockedFound, s.DeadlockRetracted)
		}
		cycles = append(cycles, s.Cycles)
	}
	slices.Sort(cycles)
	t.Logf("cycles per eval min / median / max: %d / %d / %d",
		cycles[0], cycles[len(cycles)/2], cycles[len(cycles)-1])
}

// TestNoGoroutineLeaks verifies Close tears down PE goroutines and the
// collector.
func TestNoGoroutineLeaks(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		m := New(Options{PEs: 8, Parallel: true})
		if _, err := m.Eval("2 + 2"); err != nil {
			t.Fatal(err)
		}
		m.Close()
	}
	// Allow brief settling.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestFabricAdversarialStress compares a direct-dispatch machine against a
// fabric machine under 5% loss, both driven by the adversarial
// deterministic scheduler (uniformly random pops). The lossy, batching,
// reordering network must be semantically invisible: identical evaluation
// results, and the collector must converge to the same live heap and
// reclaim the same amount of garbage.
func TestFabricAdversarialStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	type outcome struct {
		val       int64
		reclaimed int64
		live      int
	}
	run := func(name string, withFabric bool) outcome {
		opts := Options{PEs: 4, Seed: 77, Adversarial: true, Capacity: 1 << 16}
		if withFabric {
			opts.Fabric = &fabric.Params{
				BatchSize:   8,
				FlushEvery:  20 * time.Microsecond,
				LinkLatency: 5 * time.Microsecond,
				Jitter:      3 * time.Microsecond,
				DropRate:    0.05,
				ReorderRate: 0.10,
			}
		}
		m := New(opts)
		defer m.Close()
		p := workload.Programs[name]
		v, err := m.Eval(p.Src)
		if err != nil {
			t.Fatalf("%s (fabric=%v): %v", name, withFabric, err)
		}
		if v.Int != p.Want {
			t.Fatalf("%s (fabric=%v) = %v, want %d", name, withFabric, v, p.Want)
		}
		// Collect to fixpoint so both machines see the same final heap.
		for i := 0; i < 50; i++ {
			if rep := m.RunGC(); rep.Completed && rep.Reclaimed == 0 {
				break
			}
		}
		s := m.Stats()
		if withFabric {
			if s.FabricSent == 0 {
				t.Fatalf("%s: adversarial fabric run produced no traffic", name)
			}
			if s.FabricSent != s.FabricDelivered+s.FabricExpunged {
				t.Fatalf("%s: fabric lost tasks: sent=%d delivered=%d expunged=%d",
					name, s.FabricSent, s.FabricDelivered, s.FabricExpunged)
			}
		}
		return outcome{
			val:       v.Int,
			reclaimed: s.Reclaimed,
			live:      m.TotalVertices() - m.FreeVertices(),
		}
	}
	// These three spread allocation across partitions, so every run has
	// genuine cross-PE traffic (churn/fac/sumsquares stay on one PE).
	for _, name := range []string{"fib", "tak", "parfib"} {
		direct := run(name, false)
		lossy := run(name, true)
		if direct.val != lossy.val {
			t.Fatalf("%s: direct=%d fabric=%d", name, direct.val, lossy.val)
		}
		if direct.reclaimed == 0 || lossy.reclaimed == 0 {
			t.Fatalf("%s: reclamation missing (direct=%d fabric=%d)",
				name, direct.reclaimed, lossy.reclaimed)
		}
		if direct.live != lossy.live || direct.reclaimed != lossy.reclaimed {
			t.Fatalf("%s: GC diverged: direct live=%d reclaimed=%d, fabric live=%d reclaimed=%d",
				name, direct.live, direct.reclaimed, lossy.live, lossy.reclaimed)
		}
	}
}
