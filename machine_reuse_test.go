package dgr

import (
	"testing"
	"time"

	"dgr/internal/workload"
)

// TestMachineReuseDeterministic evaluates many programs back-to-back on ONE
// deterministic machine — the serving layer's pooled-worker usage pattern.
// Every eval must see a clean machine: results identical to a fresh-machine
// run, and the heap fully reclaimed between evals (no leak accumulating
// across requests).
func TestMachineReuseDeterministic(t *testing.T) {
	m := New(Options{PEs: 2})
	defer m.Close()

	progs := []string{"fib", "fac", "sumsquares"}
	baseline := -1 // live residue after the first round (last root stays pinned)
	for round := 0; round < 4; round++ {
		for _, name := range progs {
			p := workload.Programs[name]
			v, err := m.Eval(p.Src)
			if err != nil {
				t.Fatalf("round %d %s: %v", round, name, err)
			}
			if v.Int != p.Want {
				t.Fatalf("round %d %s = %v, want %d", round, name, v, p.Want)
			}
		}
		m.RunGC()
		// The collector keeps the last eval's root pinned, so a small
		// constant residue survives GC; what must NOT happen is the residue
		// growing round over round — that would mean evals leak roots.
		live := m.TotalVertices() - m.FreeVertices()
		if baseline < 0 {
			baseline = live
		} else if live > baseline {
			t.Fatalf("round %d: %d live vertices after GC, was %d after round 0 — reuse leaks",
				round, live, baseline)
		}
	}
}

// TestMachineReuseList interleaves Eval and EvalList on one machine; list
// forcing walks spine cells that scalar evals never touch, so this catches
// per-mode state bleeding across requests.
func TestMachineReuseList(t *testing.T) {
	m := New(Options{PEs: 2})
	defer m.Close()

	const listSrc = `let upto a b = if a > b then [] else a : upto (a + 1) b in upto 1 5`
	for round := 0; round < 3; round++ {
		vals, err := m.EvalList(listSrc)
		if err != nil {
			t.Fatalf("round %d list: %v", round, err)
		}
		if len(vals) != 5 {
			t.Fatalf("round %d list: got %d elems, want 5", round, len(vals))
		}
		for i, v := range vals {
			if v.Int != int64(i+1) {
				t.Fatalf("round %d list[%d] = %v, want %d", round, i, v, i+1)
			}
		}
		p := workload.Programs["fac"]
		v, err := m.Eval(p.Src)
		if err != nil {
			t.Fatalf("round %d fac: %v", round, err)
		}
		if v.Int != p.Want {
			t.Fatalf("round %d fac = %v, want %d", round, v, p.Want)
		}
	}
}

// TestMachineReuseParallel is the same reuse pattern on a live parallel
// machine: PE goroutines and the background collector stay up across evals.
// Parallel runs can hit the known rare race (ROADMAP.md), and a failed eval
// can leave residue behind — so, exactly like the serving layer's pool, a
// failed eval recycles to a fresh machine (bounded) instead of retrying on
// the dirty one. A *successful* eval returning the wrong answer is always a
// hard failure.
func TestMachineReuseParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel reuse stress")
	}
	fresh := func() *Machine {
		return New(Options{PEs: 4, Parallel: true, Timeout: 2 * time.Minute})
	}
	m := fresh()
	defer func() { m.Close() }()

	const maxRecycles = 5
	recycles := 0
	progs := []string{"fib", "fac", "sumsquares"}
	for round := 0; round < 3; round++ {
		for _, name := range progs {
			p := workload.Programs[name]
			for {
				v, err := m.Eval(p.Src)
				if err == nil {
					if v.Int != p.Want {
						t.Fatalf("round %d %s = %v, want %d", round, name, v, p.Want)
					}
					break
				}
				recycles++
				if recycles > maxRecycles {
					t.Fatalf("round %d %s: %d recycles, last error: %v", round, name, recycles, err)
				}
				t.Logf("round %d %s: recycling after %v (known parallel race)", round, name, err)
				m.Close()
				m = fresh()
			}
		}
	}
}
