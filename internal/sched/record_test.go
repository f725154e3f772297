package sched

import (
	"testing"
	"unsafe"

	"dgr/internal/graph"
	"dgr/internal/task"
)

// TestFlightKeepsLastExecutions: past FlightLen+chunkLen executions on one
// PE, the flight view is exactly the last FlightLen of them in order, with
// or without the schedule. A record keeping no schedule holds executions
// alone, in at most FlightLen/chunkLen+1 chunks; one keeping it holds every
// execution and the absorbs and phases written beside them.
func TestFlightKeepsLastExecutions(t *testing.T) {
	const n = FlightLen + chunkLen + 37
	for _, all := range []bool{false, true} {
		m := New(Config{PEs: 1, Mode: Deterministic, Seed: 1, PartOf: partMod(1)})
		m.SetRecord(all)
		var ran []graph.VertexID
		m.SetHandler(HandlerFunc(func(pe int, tk task.Task) {
			ran = append(ran, tk.Dst)
			if len(ran)%3 == 0 {
				m.NoteAbsorb(pe, task.Task{Kind: task.Mark, Dst: tk.Dst})
			}
			if len(ran)%100 == 0 {
				m.NotePhase(Entry{Op: OpCycle, Ctx: graph.CtxT}, []Root{{ID: tk.Dst}})
			}
		}))
		for i := 1; i <= n; i++ {
			m.Spawn(task.Task{Kind: task.Reduce, Dst: graph.VertexID(i)})
		}
		if steps, ok := m.RunToQuiescence(0); !ok || steps != n {
			t.Fatalf("all=%v: %d steps, quiesced %v; want %d", all, steps, ok, n)
		}

		rows := m.Flight()
		if len(rows) != FlightLen {
			t.Fatalf("all=%v: %d flight rows, want %d", all, len(rows), FlightLen)
		}
		for i, r := range rows {
			if want := ran[n-FlightLen+i]; r.PE != 0 || r.Kind != task.Reduce.String() || r.Dst != uint64(want) {
				t.Fatalf("all=%v: flight row %d is %+v, want the execution of %d", all, i, r, want)
			}
		}

		l := &m.rec.lanes[0]
		held := l.appendTo(nil)
		execs := 0
		for _, e := range held {
			if e.Op == OpExec {
				execs++
			}
		}
		if all {
			if execs != n || len(held) != n+n/3 || len(m.rec.phases.appendTo(nil)) != 2*(n/100) {
				t.Errorf("all: lane holds %d entries, %d executions; phases %d", len(held), execs,
					len(m.rec.phases.appendTo(nil)))
			}
			continue
		}
		if execs != len(held) || len(held) < FlightLen || len(l.chunks) > FlightLen/chunkLen+1 {
			t.Errorf("flight only: lane holds %d entries, %d executions, in %d chunks (want ≥ %d executions alone, ≤ %d chunks)",
				len(held), execs, len(l.chunks), FlightLen, FlightLen/chunkLen+1)
		}
		if len(m.rec.phases.chunks) != 0 {
			t.Errorf("flight only: the phases lane holds %d chunks", len(m.rec.phases.chunks))
		}
		retained := 0
		for _, c := range l.chunks {
			retained += cap(c) * int(unsafe.Sizeof(Entry{}))
		}
		t.Logf("census: a flight-only record retains %d bytes on a PE after %d executions (%d-byte entries)",
			retained, n, unsafe.Sizeof(Entry{}))
	}
}

// TestEntrySize: an entry is 48 bytes, the 40 of the schedule's fields and
// the causal word, Parent. The CI census prints it.
func TestEntrySize(t *testing.T) {
	sz := unsafe.Sizeof(Entry{})
	t.Logf("census: Sizeof(Entry)=%d", sz)
	if sz != 48 {
		t.Errorf("Sizeof(Entry) = %d, want 48", sz)
	}
}
