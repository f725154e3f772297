package dgr

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dgr/internal/graph"
	"dgr/internal/workload"
)

func TestEvalSimple(t *testing.T) {
	m := New(Options{PEs: 2, Seed: 1})
	defer m.Close()
	v, err := m.Eval("1 + 2 * 3")
	if err != nil {
		t.Fatal(err)
	}
	if v.Kind != graph.KindInt || v.Int != 7 {
		t.Fatalf("value = %v, want 7", v)
	}
}

func TestEvalCorpus(t *testing.T) {
	for name, p := range workload.Programs {
		t.Run(name, func(t *testing.T) {
			m := New(Options{PEs: 4, Seed: 2})
			defer m.Close()
			v, err := m.Eval(p.Src)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int != p.Want {
				t.Fatalf("%s = %v, want %d", name, v, p.Want)
			}
		})
	}
}

// TestEvalCorpusMarksOnce: on the corpus, collecting every 2000 steps with M_T
// in every cycle, no collector phase re-marks a vertex at a higher priority —
// each partition drains its pending marks best-first, so a vertex is first
// reached at its final priority — and no evaluation raises a runtime error.
func TestEvalCorpusMarksOnce(t *testing.T) {
	for _, engine := range []string{EngineInterp, EngineCompiled} {
		var visits int64
		for name, p := range workload.Programs {
			m := New(Options{PEs: 4, Seed: 2, Engine: engine, GCInterval: 2000, MTEvery: 1})
			v, err := m.Eval(p.Src)
			if err != nil || v.Int != p.Want {
				t.Errorf("%s/%s = %v, %v, want %d", engine, name, v, err, p.Want)
			}
			if errs := m.RuntimeErrors(); len(errs) != 0 {
				t.Errorf("%s/%s: runtime errors: %v", engine, name, errs)
			}
			mk := m.collector.Marker()
			if n := mk.Upgrades(graph.CtxR) + mk.Upgrades(graph.CtxT); n != 0 {
				t.Errorf("%s/%s: %d re-marks in %d mark visits", engine, name, n, m.Stats().MarkVisits)
			}
			visits += m.Stats().MarkVisits
			m.Close()
		}
		if visits == 0 {
			t.Errorf("%s: the corpus ran no collector phase", engine)
		}
	}
}

func TestEvalCorpusSpeculative(t *testing.T) {
	for name, p := range workload.Programs {
		t.Run(name, func(t *testing.T) {
			m := New(Options{PEs: 4, Seed: 3, SpeculativeIf: true, GCInterval: 3000})
			defer m.Close()
			v, err := m.Eval(p.Src)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int != p.Want {
				t.Fatalf("%s = %v, want %d", name, v, p.Want)
			}
		})
	}
}

func TestEvalParallel(t *testing.T) {
	m := New(Options{PEs: 4, Parallel: true})
	defer m.Close()
	v, err := m.Eval("let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 610 {
		t.Fatalf("fib 15 = %v", v)
	}
	if m.Stats().TasksExecuted == 0 {
		t.Fatal("no tasks recorded")
	}
}

func TestEvalDeadlock(t *testing.T) {
	m := New(Options{PEs: 2, Seed: 4, MTEvery: 1})
	defer m.Close()
	_, err := m.Eval("let x = x + 1 in x")
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(m.Deadlocked()) == 0 {
		t.Fatal("no deadlocked vertices reported")
	}
}

// TestDeadlockedOrderStable: what a seeded machine reports is a function of
// the seed. The verdict set is kept in a map; Deadlocked, and every artifact
// that prints it, must list it ascending, not in iteration order.
func TestDeadlockedOrderStable(t *testing.T) {
	run := func() ([]NodeID, []NodeID) {
		m := New(Options{PEs: 2, Seed: 4, MTEvery: 1, Obs: true})
		defer m.Close()
		if _, err := m.Eval("let x = x + 1; y = y + 2 in x + y"); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("err = %v, want ErrDeadlock", err)
		}
		var buf bytes.Buffer
		if err := m.WriteSnapshotJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Deadlocked []NodeID `json:"deadlocked"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		return m.Deadlocked(), doc.Deadlocked
	}
	dead, inJSON := run()
	if len(dead) < 3 {
		t.Fatalf("two knots deadlocked only %v", dead)
	}
	if !sort.SliceIsSorted(dead, func(i, j int) bool { return dead[i] < dead[j] }) {
		t.Errorf("Deadlocked() = %v, want ascending", dead)
	}
	again, againJSON := run()
	for _, got := range [][]NodeID{inJSON, again, againJSON} {
		if !reflect.DeepEqual(got, dead) {
			t.Errorf("same seed, same program: %v vs %v", got, dead)
		}
	}
}

func TestEvalDeadlockDetectionDisabled(t *testing.T) {
	// With M_T disabled the machine still notices it is stuck, just
	// without the deadlock diagnosis.
	m := New(Options{PEs: 1, Seed: 5, MTEvery: -1})
	defer m.Close()
	_, err := m.Eval("let x = x + 1 in x")
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
}

func TestEvalTypeError(t *testing.T) {
	m := New(Options{PEs: 1, Seed: 6})
	defer m.Close()
	_, err := m.Eval("1 + true")
	if !errors.Is(err, ErrStuck) {
		t.Fatalf("err = %v, want ErrStuck", err)
	}
	if len(m.RuntimeErrors()) == 0 {
		t.Fatal("runtime error not surfaced")
	}
}

func TestEvalParseError(t *testing.T) {
	m := New(Options{PEs: 1})
	defer m.Close()
	if _, err := m.Eval("1 +"); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

// TestEvalIntegerLiteralOutOfRange: a literal past int64 is a parse error
// on both engines, not a value wrapped around.
func TestEvalIntegerLiteralOutOfRange(t *testing.T) {
	const want = `line 1: integer literal "99999999999999999999" out of range`
	for _, engine := range []string{EngineInterp, EngineCompiled} {
		m := New(Options{PEs: 1, Engine: engine})
		v, err := m.Eval("99999999999999999999 + 1")
		m.Close()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Eval = %v, %v, want error %q", engine, v, err, want)
		}
	}
}

func TestEvalBudget(t *testing.T) {
	m := New(Options{PEs: 1, Seed: 7, MaxSteps: 5000, GCInterval: 1000})
	defer m.Close()
	_, err := m.Eval("let loop n = loop (n + 1) in loop 0")
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestEvalList(t *testing.T) {
	m := New(Options{PEs: 2, Seed: 8})
	defer m.Close()
	vals, err := m.EvalList(`let map f xs = if isnil xs then [] else f (head xs) : map f (tail xs)
	                         in map (\x. x * 10) [1, 2, 3]`)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || vals[0].Int != 10 || vals[1].Int != 20 || vals[2].Int != 30 {
		t.Fatalf("list = %v", vals)
	}
}

func TestGCReclaimsDuringEval(t *testing.T) {
	m := New(Options{PEs: 2, Seed: 9, GCInterval: 2000})
	defer m.Close()
	v, err := m.Eval(workload.Programs["churn"].Src)
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != workload.Programs["churn"].Want {
		t.Fatalf("churn = %v", v)
	}
	s := m.Stats()
	if s.Reclaimed == 0 {
		t.Fatal("churn workload should have produced reclaimable garbage")
	}
	if s.Cycles == 0 {
		t.Fatal("no GC cycles ran")
	}
}

func TestCloseIdempotent(t *testing.T) {
	m := New(Options{PEs: 2, Parallel: true})
	m.Close()
	m.Close()
	if _, err := m.Eval("1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestStatsAndIntrospection(t *testing.T) {
	m := New(Options{PEs: 2, Seed: 10})
	defer m.Close()
	if total, free := m.TotalVertices(), m.FreeVertices(); total != 0 || free != 0 {
		t.Fatalf("a fresh machine: total=%d free=%d, want no vertex", total, free)
	}
	if _, err := m.Eval("2 + 2"); err != nil {
		t.Fatal(err)
	}
	if total, free := m.TotalVertices(), m.FreeVertices(); total == 0 || total%64 != 0 || free >= total {
		t.Fatalf("after an eval: total=%d free=%d, want whole blocks of 64 with vertices in use", total, free)
	}
	snap := m.Snapshot()
	if snap.Len() != m.TotalVertices() {
		t.Fatal("snapshot size mismatch")
	}
	rep := m.RunGC()
	if !rep.Completed {
		t.Fatal("explicit GC cycle failed")
	}
}

// TestSeededCycleEndClosesBatches: on a seeded machine with Obs, a
// collector cycle's end closes the open execution batches, so an explicit
// RunGC with no Eval around it leaves a pe-batch span for every PE that
// executed, covering each of its executions.
func TestSeededCycleEndClosesBatches(t *testing.T) {
	m := New(Options{PEs: 4, Seed: 5, Obs: true})
	defer m.Close()
	root, err := m.Compile(workload.Programs["fib"].Src)
	if err != nil {
		t.Fatal(err)
	}
	m.DemandNode(root)
	if rep := m.RunGC(); !rep.Completed {
		t.Fatal("explicit GC cycle did not complete")
	}
	batched := make([]uint64, 4)
	for _, sp := range m.mach.Obs().Spans() {
		if sp.Name == "pe-batch" {
			batched[sp.PE] += uint64(sp.N)
		}
	}
	execs := m.ExecsPerPE()
	ran := 0
	for pe, n := range execs {
		if n > 0 {
			ran++
		}
		if batched[pe] != n {
			t.Errorf("PE %d: pe-batch spans hold %d executions, want its %d", pe, batched[pe], n)
		}
	}
	if ran < 2 {
		t.Fatalf("executions per PE %v: the cycle ran on fewer than two PEs", execs)
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	run := func() Stats {
		m := New(Options{PEs: 3, Seed: 42})
		defer m.Close()
		if _, err := m.Eval(workload.Programs["fib"].Src); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	a, bS := run(), run()
	if a.TasksExecuted != bS.TasksExecuted || a.Rewrites != bS.Rewrites {
		t.Fatalf("deterministic runs diverged: %+v vs %+v", a, bS)
	}
}

func TestIsBottomRecovery(t *testing.T) {
	// Footnote 5: is-bottom allows recovery from a deadlocked
	// subcomputation. x = x+1 deadlocks; the probe resolves true once the
	// detector finds it, and the overall program completes.
	m := New(Options{PEs: 2, Seed: 11, MTEvery: 1})
	defer m.Close()
	v, err := m.Eval(`let x = x + 1 in if isbottom x then 0 - 1 else x`)
	if err != nil {
		t.Fatalf("recovery failed: %v (deadlocked: %v)", err, m.Deadlocked())
	}
	if v.Int != -1 {
		t.Fatalf("recovered value = %v, want -1", v)
	}
	// The probe was forgotten, but the knot itself may remain recorded;
	// either way the machine keeps working.
	v2, err := m.Eval("21 * 2")
	if err != nil || v2.Int != 42 {
		t.Fatalf("machine unhealthy after recovery: %v %v", v2, err)
	}
}

func TestIsBottomFalseOnValue(t *testing.T) {
	m := New(Options{PEs: 2, Seed: 12, MTEvery: 1})
	defer m.Close()
	v, err := m.Eval("if isbottom (2 + 3) then 1 else 2")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Fatalf("isbottom of a value = %v, want branch 2", v)
	}
}
