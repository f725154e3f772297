package dgr_test

// The execution record has one writer per entry kind and several readers:
// the schedule (ScheduleEvents, WriteScheduleJSONL) and the flight view
// (WriteFlightJSONL, WriteSnapshotJSON's last rows). These tests read the
// two views of one run against each other, and read them while a parallel
// machine writes the record.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"dgr"
	"dgr/internal/obs"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// TestFlightIsScheduleTail: on a seeded run with Obs and RecordSchedule both
// on, each PE's execution rows in the flight view are, field for field, the
// tail of that PE's executions in the schedule, its last sched.FlightLen.
func TestFlightIsScheduleTail(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 4, Seed: 3, GCInterval: 500, MTEvery: 1, Obs: true, RecordSchedule: true})
	defer m.Close()
	// Long enough that some PE executes more than sched.FlightLen tasks.
	if v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15`); err != nil || v.Int != 610 {
		t.Fatalf("fib 15 = %v, %v", v, err)
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteFlightJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	type row struct {
		pe       int
		kind     string
		src, dst uint64
	}
	kinds := map[string]bool{}
	for k := task.Demand; k <= task.Return; k++ {
		kinds[k.String()] = true
	}
	flight := map[int][]row{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e obs.FlightEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		if e.PE >= 0 && kinds[e.Kind] {
			flight[e.PE] = append(flight[e.PE], row{e.PE, e.Kind, e.Src, e.Dst})
		}
	}
	schedule := map[int][]row{}
	for _, e := range events {
		if e.Op == sched.OpExec {
			pe := int(e.PE)
			schedule[pe] = append(schedule[pe], row{pe, e.Kind.String(), uint64(e.Src), uint64(e.Dst)})
		}
	}
	longest := 0
	for pe := range 4 {
		f, s := flight[pe], schedule[pe]
		longest = max(longest, len(s))
		if len(s) == 0 || len(f) != min(sched.FlightLen, len(s)) {
			t.Fatalf("PE %d: %d flight rows, %d scheduled executions (want the last %d)", pe, len(f), len(s), sched.FlightLen)
		}
		tail := s[len(s)-len(f):]
		for i := range f {
			if f[i] != tail[i] {
				t.Fatalf("PE %d: flight row %d is %+v, the schedule's tail has %+v", pe, i, f[i], tail[i])
			}
		}
		t.Logf("PE %d: %d flight rows, the tail of %d scheduled executions", pe, len(f), len(s))
	}
	if longest <= sched.FlightLen {
		t.Errorf("no PE executed more than %d tasks: the flight view cut nothing", sched.FlightLen)
	}
}

// TestRecordReadersDuringParallelEval: a goroutine reads every view of the
// record while a parallel 4-PE machine writes it, which PEs do under no lock
// they share. Run it under -race.
func TestRecordReadersDuringParallelEval(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 4, Parallel: true, GCInterval: 2000, Obs: true, RecordSchedule: true})
	defer m.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	reads := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := m.ScheduleEvents(); err != nil {
				t.Error(err)
				return
			}
			if err := m.WriteFlightJSONL(io.Discard); err != nil {
				t.Error(err)
				return
			}
			if err := m.WriteSnapshotJSON(io.Discard); err != nil {
				t.Error(err)
				return
			}
			reads++
		}
	}()
	v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 16`)
	close(done)
	wg.Wait()
	if err != nil || v.Int != 987 {
		t.Fatalf("fib 16 = %v, %v", v, err)
	}
	events, err := m.ScheduleEvents()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d reads of every view during the eval; %d events recorded", reads, len(events))
	if reads == 0 {
		t.Error("no read landed during the eval")
	}
}
