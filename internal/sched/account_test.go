package sched

import (
	"testing"
	"time"

	"dgr/internal/graph"
	"dgr/internal/obs"
	"dgr/internal/task"
)

// accounted returns a machine of pes PEs whose accounting runs (its record
// is on) and records its batch spans into the handle returned.
func accounted(mode Mode, pes int) (*Machine, *obs.Obs) {
	o := obs.New(obs.Options{})
	m := New(Config{PEs: pes, Mode: mode, PartOf: partMod(pes), Obs: o})
	m.SetRecord(false)
	return m, o
}

// account does an execution's accounting on PE pe, as execute does around
// the handler, and returns the clock the record would stamp it with.
func account(m *Machine, pe int) int64 {
	m.begin(&m.current[pe])
	return m.end(pe)
}

// batchTasks sums the N of o's pe-batch spans per PE.
func batchTasks(o *obs.Obs, pes int) []int64 {
	n := make([]int64, pes)
	for _, s := range o.Spans() {
		if s.Name == "pe-batch" {
			n[s.PE] += s.N
		}
	}
	return n
}

func TestTaskAccounting(t *testing.T) {
	// A parallel machine's PE keeps its own window and batch.
	m, o := accounted(Parallel, 2)
	for i := 0; i < 5; i++ {
		account(m, 1)
	}
	m.FlushBatches() // the PEs close their own batches: nothing here
	if got := batchTasks(o, 2); got[1] != 0 {
		t.Fatal("batch span recorded before the PE went idle")
	}
	m.idle(1) // accrual point: busy time becomes exact
	if got := m.BusyNs(1); got < 0 {
		t.Fatalf("negative busy time %d", got)
	}
	if got := m.BusyNs(0); got != 0 {
		t.Fatalf("PE 0 executed nothing but was busy %d ns", got)
	}
	if got := batchTasks(o, 2); got[0] != 0 || got[1] != 5 {
		t.Fatalf("pe-batch span tasks per PE = %v, want [0 5]; spans: %+v", got, o.Spans())
	}
	// Idle with no open batch records nothing new.
	n := len(o.Spans())
	m.idle(1)
	if len(o.Spans()) != n {
		t.Fatal("empty batch flushed into a span")
	}
	// After idle the clock is read afresh: the wait is not busy time, and
	// the next execution is stamped after it.
	const wait = 20 * time.Millisecond
	busy := m.BusyNs(1)
	time.Sleep(wait)
	woke := obs.Now()
	if at := account(m, 1); at < woke {
		t.Fatalf("execution after idle stamped %d, before the wait ended at %d", at, woke)
	}
	m.idle(1)
	if d := m.BusyNs(1) - busy; d < 0 || d >= int64(wait) {
		t.Fatalf("one execution after a %v wait charged %d ns busy", wait, d)
	}

	// A seeded machine alternating PEs: one goroutine runs both, so they
	// share one busy window, each reading split by the PEs' executions (three
	// to PE 0 for every one to PE 1), and no batch closes on a switch.
	m, o = accounted(Deterministic, 2)
	start := obs.Now()
	for i := 0; i < 8*clockExecs; i++ {
		pe := 0
		if i%4 == 3 {
			pe = 1
		}
		account(m, pe)
	}
	m.FlushBatches()
	wall := obs.Now() - start
	b0, b1 := m.BusyNs(0), m.BusyNs(1)
	if b1 <= 0 || b0+b1 > wall {
		t.Fatalf("busy %d+%d ns in %d ns of wall time", b0, b1, wall)
	}
	// Each of the 8 readings gives floor(3d/4) and floor(d/4).
	if d := b0 - 3*b1; d < 0 || d > 2*8 {
		t.Fatalf("busy split %d:%d is not 3:1 per reading", b0, b1)
	}
	if got := batchTasks(o, 2); got[0] != 6*clockExecs || got[1] != 2*clockExecs {
		t.Fatalf("pe-batch span tasks per PE = %v, want [%d %d]", got, 6*clockExecs, 2*clockExecs)
	}

	// A running parallel machine whose executions each take spin: every PE's
	// busy time covers its executions and stays within the wall time, and
	// its pe-batch spans count each of its executions once, all closed by
	// the time Stop returns.
	const pes, tasks, spin = 4, 100, 50 * time.Microsecond
	m, o = accounted(Parallel, pes)
	m.SetHandler(HandlerFunc(func(int, task.Task) {
		for start := time.Now(); time.Since(start) < spin; {
		}
	}))
	for i := 1; i <= tasks; i++ {
		m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
	}
	began := time.Now()
	m.Start()
	m.WaitQuiescent()
	m.Stop()
	elapsed := time.Since(began)
	execs, batches := m.ExecutionsByPE(), batchTasks(o, pes)
	for pe := 0; pe < pes; pe++ {
		busy := time.Duration(m.BusyNs(pe))
		if busy < time.Duration(execs[pe])*spin || busy > elapsed {
			t.Errorf("PE %d: busy %v for %d executions of %v, wall %v", pe, busy, execs[pe], spin, elapsed)
		}
		if batches[pe] != int64(execs[pe]) {
			t.Errorf("PE %d: pe-batch spans hold %d executions, want %d", pe, batches[pe], execs[pe])
		}
	}
}

// TestAccountingFollowsHandle: the accounting's one reader is the obs handle,
// so a machine whose record is on reads no clock without one, and every PE's
// busy time stays 0; with one, a PE that executed was busy.
func TestAccountingFollowsHandle(t *testing.T) {
	const tasks, spin = 4 * clockExecs, 10 * time.Microsecond
	for _, o := range []*obs.Obs{nil, obs.New(obs.Options{})} {
		m := New(Config{PEs: 2, Mode: Deterministic, Seed: 1, PartOf: partMod(2), Obs: o})
		m.SetRecord(true)
		m.SetHandler(HandlerFunc(func(int, task.Task) {
			for start := time.Now(); time.Since(start) < spin; {
			}
		}))
		for i := 1; i <= tasks; i++ {
			m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
		}
		m.RunToQuiescence(0)
		m.FlushBatches()
		if n := len(m.Record()); n != tasks {
			t.Fatalf("handle %v: the record holds %d executions, want %d", o != nil, n, tasks)
		}
		for pe, execs := range m.ExecutionsByPE() {
			busy := m.BusyNs(pe)
			if o == nil && busy != 0 {
				t.Errorf("no handle: PE %d busy %d ns, want 0 (nothing reads it)", pe, busy)
			}
			if o != nil && execs > 0 && busy <= 0 {
				t.Errorf("handle: PE %d ran %d executions but was busy %d ns", pe, execs, busy)
			}
		}
	}
}
