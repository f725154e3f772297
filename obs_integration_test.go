package dgr_test

// Integration tests for the observability layer through the public facade:
// collector-phase spans land in the chrome trace export, the exposition
// endpoints render non-empty, an ErrDeadlock auto-dumps the flight recorder,
// and — critically — enabling obs does not perturb the deterministic
// schedule.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"dgr"
	"dgr/internal/fabric"
	"dgr/internal/obs"
)

func TestObsSpansAndExposition(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:        2,
		Seed:       42,
		Capacity:   1 << 14,
		MTEvery:    1,
		GCInterval: 500, // force collector cycles to interleave with the eval
		Obs:        true,
	})
	defer m.Close()
	v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 10`)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if v.Int != 55 {
		t.Fatalf("fib 10 = %v, want 55", v)
	}

	var spans bytes.Buffer
	if err := m.WriteSpansJSONL(&spans); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(&spans)
	for sc.Scan() {
		var ev struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("span line not JSON: %v", err)
		}
		if ev.Ph != "X" {
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
		seen[ev.Name] = true
	}
	for _, want := range []string{"M_R", "M_T", "restructure", "sweep", "cycle", "pe-batch"} {
		if !seen[want] {
			t.Errorf("no %q span in trace export; saw %v", want, seen)
		}
	}

	var prom bytes.Buffer
	if err := m.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dgr_tasks_executed_total",
		"dgr_gc_cycles_total",
		`dgr_pe_queue_depth{pe="1",band="marking"}`,
		"dgr_heap_vertices",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	var snap bytes.Buffer
	if err := m.WriteSnapshotJSON(&snap); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Heap       int     `json:"heap"`
		Cycles     int64   `json:"cycles"`
		Executions uint64  `json:"executions"`
		ExecsPerPE []int64 `json:"execs_per_pe"`
	}
	if err := json.Unmarshal(snap.Bytes(), &got); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if got.Heap == 0 || got.Cycles == 0 || got.Executions == 0 {
		t.Fatalf("snapshot looks empty: %+v", got)
	}
	var execs int64
	for _, n := range got.ExecsPerPE {
		execs += n
	}
	if uint64(execs) != got.Executions {
		t.Errorf("per-PE execs sum %d != machine executions %d", execs, got.Executions)
	}

	var flight bytes.Buffer
	if err := m.WriteFlightJSONL(&flight); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(flight.String(), `"kind":"cycle.start"`) ||
		!strings.Contains(flight.String(), `"kind":"demand"`) {
		t.Error("flight recorder missing collector or execution events")
	}

	var dot bytes.Buffer
	if err := m.WriteGraphDOT(&dot); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "digraph computation") {
		t.Error("graph DOT export empty")
	}
}

// TestObsScheduleUnchanged asserts that turning the observability layer on
// reproduces the exact golden schedule digest of an uninstrumented run: the
// instrumentation observes the machine without steering it.
func TestObsScheduleUnchanged(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:            4,
		Seed:           42,
		Capacity:       1 << 14,
		RecordSchedule: true,
		Obs:            true,
	})
	defer m.Close()
	got := digestEval(t, m, detFib, 144)
	if want := goldenSchedules["seed=42/pes=4"]; got != want {
		t.Fatalf("schedule digest with obs on = %s, want golden %s", got, want)
	}
}

// TestObsFlightDumpOnDeadlock: the flight dump a deadlocked evaluation
// leaves holds the collector's events, the executions, and last the verdicts
// row naming the confirmed-deadlocked vertices.
func TestObsFlightDumpOnDeadlock(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:      2,
		Seed:     1,
		Capacity: 1 << 12,
		MTEvery:  1,
		Obs:      true,
	})
	defer m.Close()
	_, err := m.Eval(`let x = x + 1 in x`)
	if !errors.Is(err, dgr.ErrDeadlock) {
		t.Fatalf("eval err = %v, want ErrDeadlock", err)
	}
	var dump bytes.Buffer
	if err := m.WriteFlightJSONL(&dump); err != nil {
		t.Fatal(err)
	}
	data := dump.String()
	if !strings.Contains(data, `"kind":"cycle.start"`) {
		t.Errorf("dump missing collector events:\n%.400s", data)
	}
	if !strings.Contains(data, `"kind":"demand"`) {
		t.Errorf("dump missing scheduler execution events:\n%.400s", data)
	}
	lines := strings.Split(strings.TrimSpace(data), "\n")
	var last struct {
		Kind      string
		Confirmed []dgr.NodeID
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if want := m.Deadlocked(); last.Kind != "verdicts" || len(want) == 0 || !slices.Equal(last.Confirmed, want) {
		t.Errorf("last row %s, want the verdicts confirming %v", lines[len(lines)-1], want)
	}
}

func TestObsParallelSmoke(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:      4,
		Parallel: true,
		Fabric:   &fabric.Params{},
		Obs:      true,
	})
	defer m.Close()
	v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15`)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if v.Int != 610 {
		t.Fatalf("fib 15 = %v, want 610", v)
	}
	var snap bytes.Buffer
	if err := m.WriteSnapshotJSON(&snap); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Executions uint64 `json:"executions"`
	}
	if err := json.Unmarshal(snap.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Executions == 0 {
		t.Fatal("parallel machine reported zero executions")
	}
}

// TestObsBusyTime checks the per-PE busy-time counter against the wall
// clock of the evaluation it accrued in. A seeded machine runs every PE on
// one goroutine, so their busy times add up to at most the wall time; a
// parallel machine's PEs run at once, so each one's does.
func TestObsBusyTime(t *testing.T) {
	const src = `let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15`
	for _, parallel := range []bool{false, true} {
		m := dgr.New(dgr.Options{PEs: 4, Seed: 1, Parallel: parallel, Obs: true})
		start := time.Now()
		v, err := m.Eval(src)
		if err != nil || v.Int != 610 {
			m.Close()
			t.Fatalf("parallel=%v: fib 15 = %v, %v", parallel, v, err)
		}
		// Until the snapshot is read: a parallel machine's PEs may run on
		// after Eval returns.
		var snap bytes.Buffer
		err = m.WriteSnapshotJSON(&snap)
		wall := time.Since(start)
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			BusyNs []int64 `json:"busy_ns_per_pe"`
		}
		if err := json.Unmarshal(snap.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if len(got.BusyNs) != 4 {
			t.Fatalf("parallel=%v: busy_ns_per_pe = %v, want 4 entries", parallel, got.BusyNs)
		}
		var sum int64
		for pe, ns := range got.BusyNs {
			if ns < 0 || ns > int64(wall) {
				t.Errorf("parallel=%v: PE %d busy %d ns, outside [0, wall %d ns]", parallel, pe, ns, wall)
			}
			sum += ns
		}
		t.Logf("parallel=%v: busy %v ns per PE, sum %d, wall %d", parallel, got.BusyNs, sum, wall)
		if sum <= 0 {
			t.Errorf("parallel=%v: no busy time accrued", parallel)
		}
		if !parallel && sum > int64(wall) {
			t.Errorf("seeded: busy times sum to %d ns, more than the wall time %d ns", sum, wall)
		}
	}
}

func TestObsDisabledSurface(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 1})
	defer m.Close()
	if _, err := m.Eval(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for name, fn := range map[string]func() error{
		"spans":  func() error { return m.WriteSpansJSONL(&buf) },
		"flight": func() error { return m.WriteFlightJSONL(&buf) },
		"prom":   func() error { return m.WritePrometheus(&buf) },
		"snap":   func() error { return m.WriteSnapshotJSON(&buf) },
	} {
		if err := fn(); err == nil {
			t.Errorf("%s: no error with obs disabled", name)
		}
	}
	// The graph DOT export does not need the obs layer.
	if err := m.WriteGraphDOT(&buf); err != nil {
		t.Errorf("WriteGraphDOT: %v", err)
	}
}

// TestSharedLogReadersSeeOwnMachine pools two machines behind one log, as
// the serving layer does. Each machine's flight dump and chrome export must
// hold its own records only (told apart here by how many cycles each ran),
// while trace assembly over the log sees both machines' traces.
func TestSharedLogReadersSeeOwnMachine(t *testing.T) {
	log := obs.NewTraceSink(0, 0)
	count := func(m *dgr.Machine, write func(*dgr.Machine, *bytes.Buffer) error, needle string) int {
		t.Helper()
		var buf bytes.Buffer
		if err := write(m, &buf); err != nil {
			t.Fatal(err)
		}
		return strings.Count(buf.String(), needle)
	}
	flight := func(m *dgr.Machine, w *bytes.Buffer) error { return m.WriteFlightJSONL(w) }
	chrome := func(m *dgr.Machine, w *bytes.Buffer) error { return m.WriteSpansJSONL(w) }

	var machines []*dgr.Machine
	for i, cycles := range []int{3, 5} {
		m := dgr.New(dgr.Options{PEs: 2, Seed: 1, Capacity: 1 << 12, Obs: true, TraceSink: log})
		defer m.Close()
		machines = append(machines, m)
		if _, err := m.EvalTraced(`6 * 7`, log.NewTrace(), 0); err != nil {
			t.Fatalf("machine %d: %v", i, err)
		}
		for m.Stats().Cycles < int64(cycles) {
			m.RunGC()
		}
	}
	for i, want := range []int{3, 5} {
		m := machines[i]
		if got := count(m, flight, `"kind":"cycle.start"`); got != want {
			t.Errorf("machine %d's flight dump has %d cycle.start events, want its own %d", i, got, want)
		}
		if got := count(m, chrome, `"name":"cycle"`); got != want {
			t.Errorf("machine %d's chrome export has %d cycle spans, want its own %d", i, got, want)
		}
	}
	spans, _ := log.Spans()
	traces, globals := obs.AssembleTraces(spans)
	if len(traces) != 2 {
		t.Fatalf("assembly over the shared log saw %d traces, want both machines' (2)", len(traces))
	}
	var mr int
	for _, g := range globals {
		if g.Name == "M_R" {
			mr++
		}
	}
	if mr != 3+5 {
		t.Fatalf("assembly saw %d M_R phases, want both machines' (8)", mr)
	}
}

// TestSeededGraphDOTDuringEval: a seeded machine's vertices, task pools, PE
// slots and free-list shards take no lock of their own, so what reads them
// from another goroutine — dgr-run serves /debug/graph.dot, /metrics and
// /debug/snapshot.json during an eval — waits on the machine's owner lock,
// which an evaluation holds across each collector interval. Race-free under
// -race, and each dump is a whole graph.
func TestSeededGraphDOTDuringEval(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 2, Seed: 3, GCInterval: 500, Obs: true})
	defer m.Close()
	stop := make(chan struct{})
	reads := make(chan int)
	go func() {
		n := 0
		defer func() { reads <- n }()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var dot bytes.Buffer
			if err := m.WriteGraphDOT(&dot); err != nil || !strings.HasSuffix(dot.String(), "}\n") {
				t.Errorf("WriteGraphDOT: %v, %d bytes", err, dot.Len())
				return
			}
			if s := m.Snapshot(); s.Len() == 0 {
				t.Error("Snapshot holds no vertices")
				return
			}
			if err := m.WriteSnapshotJSON(&dot); err != nil {
				t.Errorf("WriteSnapshotJSON: %v", err)
				return
			}
			dot.Reset()
			if err := m.WritePrometheus(&dot); err != nil || !strings.Contains(dot.String(), "dgr_tasks_executed_total") {
				t.Errorf("WritePrometheus: %v, %d bytes", err, dot.Len())
				return
			}
			if g := m.Gauges(); g.PEs != 2 || g.Heap == 0 {
				t.Errorf("Gauges = %+v", g)
				return
			}
			if execs := m.ExecsPerPE(); len(execs) != 2 {
				t.Errorf("ExecsPerPE = %v, want 2 PEs", execs)
				return
			}
			n++
		}
	}()
	v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15`)
	close(stop)
	n := <-reads
	if err != nil || v.Int != 610 {
		t.Fatalf("fib 15 = %v, %v; want 610", v, err)
	}
	t.Logf("%d graph reads alongside the evaluation", n)
}

// TestSeededCountersDuringEval: a reader on another goroutine calls Stats(),
// Gauges() and FreeVertices() in a loop while a seeded machine evaluates fib.
// The free-list shards and the in-use bits a seeded machine's owner writes
// without a lock or an atomic are read under the owner lock, and the counters
// an execution tallies are published with an atomic add, so the reads are
// race-free under -race. Every read is in range, and the counters never go
// back.
func TestSeededCountersDuringEval(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 2, Seed: 3, GCInterval: 500})
	defer m.Close()
	stop := make(chan struct{})
	reads := make(chan int)
	go func() {
		n := 0
		defer func() { reads <- n }()
		var last dgr.Stats
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := m.Stats()
			if s.Rewrites < last.Rewrites || s.Allocations < last.Allocations || s.TasksExecuted < last.TasksExecuted {
				t.Errorf("counters went back: %+v after %+v", s, last)
				return
			}
			last = s
			g := m.Gauges()
			free := m.FreeVertices()
			if g.PEs != 2 || g.Free < 0 || g.Free > g.Heap || free < 0 || free > m.TotalVertices() {
				t.Errorf("Gauges = %+v, FreeVertices = %d of %d", g, free, m.TotalVertices())
				return
			}
			n++
		}
	}()
	v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 15`)
	close(stop)
	n := <-reads
	if err != nil || v.Int != 610 {
		t.Fatalf("fib 15 = %v, %v; want 610", v, err)
	}
	s := m.Stats()
	if live := m.TotalVertices() - m.FreeVertices(); s.Allocations == 0 || s.Rewrites == 0 || live <= 0 {
		t.Fatalf("after the eval: %d allocations, %d rewrites, %d vertices in use", s.Allocations, s.Rewrites, live)
	}
	t.Logf("%d counter reads alongside the evaluation", n)
}
