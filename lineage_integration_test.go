package dgr_test

// Integration tests for causal task-lineage tracing through the public
// facade: tracing at rate 1.0 must not perturb the deterministic schedule
// (the golden digest is byte-identical), a traced eval must assemble back
// into a spawn DAG whose critical-path blame sums exactly to the measured
// latency, and the JSON exposition document must round-trip. The parallel
// variant runs with stealing and the fabric on, so steal/fabric annotation
// spans ride the same trace.

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"dgr"
	"dgr/internal/fabric"
	"dgr/internal/obs"
	"dgr/internal/sched"
)

// TestTracingScheduleUnchanged asserts the tentpole's zero-perturbation
// property: a machine with obs AND lineage tracing at rate 1.0 reproduces
// the exact golden schedule digest of an uninstrumented run. Trace stamps
// ride fields the digest does not hash, and span recording happens outside
// the scheduling decisions.
func TestTracingScheduleUnchanged(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:            4,
		Seed:           42,
		RecordSchedule: true,
		Obs:            true,
		TraceRate:      1,
	})
	defer m.Close()
	got := digestEval(t, m, detFib, 144)
	if want := goldenSchedules["seed=42/pes=4"]; got != want {
		t.Fatalf("schedule digest with tracing on = %s, want golden %s", got, want)
	}
	// The run must actually have traced: an eval envelope plus task execs.
	spans, _ := m.TraceSink().Spans()
	if len(spans) < 2 {
		t.Fatalf("traced run recorded %d spans, want an eval envelope + execs", len(spans))
	}
}

// TestTraceAssemblesDeterministic evaluates on a deterministic traced
// machine and checks the end-to-end pipeline: spans → AssembleTraces →
// CriticalPath, with the blame categories summing exactly to the trace's
// measured latency (the partition property the CI smoke also guards).
func TestTraceAssemblesDeterministic(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:       2,
		Seed:      42,
		MTEvery:   1,
		TraceRate: 1,
	})
	defer m.Close()
	v, err := m.Eval(detFib)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if v.Int != 144 {
		t.Fatalf("eval = %v, want 144", v)
	}

	spans, dropped := m.TraceSink().Spans()
	if dropped != 0 {
		t.Fatalf("ring evicted %d spans of a single small eval", dropped)
	}
	traces, globals := obs.AssembleTraces(spans)
	if len(traces) != 1 {
		t.Fatalf("assembled %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Orphans != 0 {
		t.Fatalf("%d orphaned spans with no eviction", tr.Orphans)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "eval" {
		t.Fatalf("roots = %+v, want the single eval envelope", tr.Roots)
	}
	cats := map[string]int{}
	for _, sp := range tr.Spans {
		cats[sp.Cat]++
	}
	if cats[obs.CatEval] != 1 || cats[obs.CatExec] == 0 {
		t.Fatalf("span categories %v, want one eval envelope and task execs", cats)
	}

	rep := obs.CriticalPath(tr, globals)
	if rep.TotalNs <= 0 {
		t.Fatalf("TotalNs = %d, want positive", rep.TotalNs)
	}
	var blamed int64
	for _, ns := range rep.Blame {
		blamed += ns
	}
	if blamed != rep.TotalNs {
		t.Fatalf("blame sums to %d, want exactly TotalNs %d (path must partition the trace)",
			blamed, rep.TotalNs)
	}
	if len(rep.Path) < 2 {
		t.Fatalf("critical path has %d segments, want the walk to descend into task execs", len(rep.Path))
	}
}

// TestTraceParallelStealsFabric runs the traced pipeline in the full
// parallel configuration — per-PE goroutines, work stealing on (the
// default), and the simulated fabric between PEs — and asserts the same
// partition property holds on whatever interleaving this run produced.
func TestTraceParallelStealsFabric(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:       4,
		Seed:      42,
		Parallel:  true,
		Fabric:    &fabric.Params{},
		TraceRate: 1,
	})
	defer m.Close()

	// A parallel evaluation has failed here now and then; each failed
	// attempt is logged, and the test fails only if three in a row do.
	var v dgr.Value
	var err error
	for attempt := 1; attempt <= 3; attempt++ {
		if v, err = m.Eval(detFib); err == nil {
			break
		}
		t.Logf("attempt %d: parallel eval: %v", attempt, err)
	}
	if err != nil {
		t.Fatalf("parallel eval: %v", err)
	}
	if v.Int != 144 {
		t.Fatalf("eval = %v, want 144", v)
	}

	spans, _ := m.TraceSink().Spans()
	traces, globals := obs.AssembleTraces(spans)
	if len(traces) == 0 {
		t.Fatal("no traces assembled from a rate-1.0 parallel run")
	}
	cats := map[string]int{}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			cats[sp.Cat]++
		}
	}
	if cats[obs.CatExec] == 0 {
		t.Fatalf("span categories %v, want task exec spans", cats)
	}
	t.Logf("parallel span categories: %v (steals=%d fabric=%d)",
		cats, cats[obs.CatSteal], cats[obs.CatFabric])
	for _, tr := range traces {
		rep := obs.CriticalPath(tr, globals)
		var blamed int64
		for _, ns := range rep.Blame {
			blamed += ns
		}
		if blamed != rep.TotalNs {
			t.Fatalf("trace %x: blame sums to %d, want TotalNs %d", tr.ID, blamed, rep.TotalNs)
		}
	}
}

// TestWriteTracesJSON round-trips the exposition document the serving layer
// mounts at /debug/traces.json and `dgr-trace -analyze` consumes.
func TestWriteTracesJSON(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:       2,
		Seed:      7,
		TraceRate: 1,
	})
	defer m.Close()
	if _, err := m.Eval(detFib); err != nil {
		t.Fatalf("eval: %v", err)
	}
	var buf bytes.Buffer
	if err := m.WriteTracesJSON(&buf); err != nil {
		t.Fatalf("WriteTracesJSON: %v", err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("decode trace doc: %v", err)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("doc has %d traces, want 1", len(doc.Traces))
	}
	rep := doc.Traces[0]
	if rep.TotalNs <= 0 || len(rep.Spans) == 0 || len(rep.Crit.Path) == 0 {
		t.Fatalf("doc trace incomplete: total=%d spans=%d path=%d",
			rep.TotalNs, len(rep.Spans), len(rep.Crit.Path))
	}

	// Tracing disabled → the writer refuses rather than emitting an empty doc.
	m2 := dgr.New(dgr.Options{PEs: 1})
	defer m2.Close()
	if err := m2.WriteTracesJSON(&buf); err == nil {
		t.Fatal("WriteTracesJSON on an untraced machine must error")
	}
}

// TestCollectorPhaseRecordedOnce: with obs and rate-1.0 tracing both on,
// each collector phase is one record in the one log — not one per
// instrument.
func TestCollectorPhaseRecordedOnce(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:        2,
		Seed:       42,
		GCInterval: 500,
		Obs:        true,
		TraceRate:  1,
	})
	defer m.Close()
	if _, err := m.Eval(detFib); err != nil {
		t.Fatalf("eval: %v", err)
	}
	cycles := m.Stats().Cycles
	if cycles < 2 {
		t.Fatalf("only %d collector cycles ran; the eval must span several", cycles)
	}
	spans, _ := m.TraceSink().Spans()
	var mr int64
	for _, sp := range spans {
		if sp.Name == "M_R" {
			mr++
		}
	}
	if mr != cycles {
		t.Fatalf("log holds %d M_R records for %d cycles, want one each", mr, cycles)
	}
}

// TestBlameWithNonGCGlobals runs with obs, tracing and the fabric all on, so
// the log's global class holds far more than collector phases — cycle and
// sweep envelopes, execution batches, batch flights, point events. Only the
// phases may be overlapped against the trace: blame must still sum exactly
// to latency, and the "cycle" record around them must not turn the whole
// path into gc.
func TestBlameWithNonGCGlobals(t *testing.T) {
	m := dgr.New(dgr.Options{
		PEs:        4,
		Seed:       42,
		GCInterval: 2000,
		Fabric:     &fabric.Params{},
		Obs:        true,
		TraceRate:  1,
	})
	defer m.Close()
	if _, err := m.Eval(detFib); err != nil {
		t.Fatalf("eval: %v", err)
	}
	spans, _ := m.TraceSink().Spans()
	other := map[string]int{}
	for _, sp := range spans {
		if sp.Trace == 0 && sp.Cat != obs.CatGC {
			other[sp.Name]++
		}
	}
	for _, name := range []string{"cycle", "sweep", "pe-batch", "fab-batch", "cycle.start", "fab.flush"} {
		if other[name] == 0 {
			t.Fatalf("no %q record among the non-gc globals %v; the run does not exercise the filter", name, other)
		}
	}

	var buf bytes.Buffer
	if err := m.WriteTracesJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Globals) == 0 {
		t.Fatal("document carries no collector phases")
	}
	for _, g := range doc.Globals {
		if g.Cat != obs.CatGC {
			t.Fatalf("TraceDoc.Globals holds a %s/%s record, want collector phases only", g.Cat, g.Name)
		}
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("doc has %d traces, want 1", len(doc.Traces))
	}
	crit := doc.Traces[0].Crit
	var blamed int64
	for _, ns := range crit.Blame {
		blamed += ns
	}
	if blamed != crit.TotalNs {
		t.Fatalf("blame sums to %d, want exactly TotalNs %d", blamed, crit.TotalNs)
	}
	if crit.Blame[obs.CatExec] == 0 {
		t.Fatalf("no time blamed to exec (blame %v): an enclosing interval swallowed the path", crit.Blame)
	}
}

// tracedSpans counts the traced spans in the log, per trace and in all.
func tracedSpans(m *dgr.Machine) (perTrace map[uint64]int, total int) {
	spans, _ := m.TraceSink().Spans()
	perTrace = map[uint64]int{}
	for _, sp := range spans {
		if sp.Trace != 0 {
			perTrace[sp.Trace]++
			total++
		}
	}
	return perTrace, total
}

// TestTraceUnsampledEvalAddsNoSpans: a task's lineage is its spawner's, never
// a vertex's. At TraceRate 0.5 every other EvalNode of one root is sampled;
// an unsampled one must record nothing, and a sampled one must add spans to
// its own trace only. (A lineage context parked on the root vertex by the
// previous, sampled call once put the unsampled call's root demand in that
// call's trace: traced spans 0, 2, 3, 5.)
func TestTraceUnsampledEvalAddsNoSpans(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 2, Seed: 3, TraceRate: 0.5})
	defer m.Close()
	root, err := m.Compile(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 8`)
	if err != nil {
		t.Fatal(err)
	}
	var totals []int
	prev := map[uint64]int{}
	for call := 1; call <= 4; call++ {
		if v, err := m.EvalNode(root); err != nil || v.Int != 21 {
			t.Fatalf("call %d: EvalNode = %v, %v; want 21", call, v, err)
		}
		per, total := tracedSpans(m)
		for tr, n := range prev {
			if per[tr] != n {
				t.Fatalf("call %d added %d spans to the earlier trace %d", call, per[tr]-n, tr)
			}
		}
		totals = append(totals, total)
		prev = per
	}
	// Calls 1 and 3 are unsampled, 2 and 4 find the root evaluated: an eval
	// envelope and the root demand's execution each.
	if want := []int{0, 2, 2, 4}; !slices.Equal(totals, want) {
		t.Fatalf("traced spans after each call = %v, want %v", totals, want)
	}
}

// TestTraceIsBottomLineage: an is-bottom probe resolved by the deadlock
// detector answers in the lineage of the task that registered it, so the
// reduction it un-sticks stays in the evaluation's trace: one trace, one
// root, no orphans, and execution spans after the verdict.
func TestTraceIsBottomLineage(t *testing.T) {
	for _, pes := range []int{1, 2} {
		m := dgr.New(dgr.Options{PEs: pes, Seed: 11, MTEvery: 1, TraceRate: 1})
		v, err := m.Eval(`let x = x + 1 in if isbottom x then 0 - 1 else x`)
		spans, _ := m.TraceSink().Spans()
		m.Close()
		if err != nil || v.Int != -1 {
			t.Fatalf("pes=%d: eval = %v, %v; want -1", pes, v, err)
		}
		var verdict int64
		for _, sp := range spans {
			if sp.Name == "deadlock.found" {
				verdict = sp.Start
			}
		}
		if verdict == 0 {
			t.Fatalf("pes=%d: no deadlock.found event; the probe was not resolved by a verdict", pes)
		}
		traces, _ := obs.AssembleTraces(spans)
		if len(traces) != 1 {
			t.Fatalf("pes=%d: %d traces, want 1", pes, len(traces))
		}
		tr := traces[0]
		if tr.Orphans != 0 || len(tr.Roots) != 1 {
			t.Fatalf("pes=%d: %d orphans and %d roots, want 0 and the eval envelope", pes, tr.Orphans, len(tr.Roots))
		}
		after := 0
		for _, sp := range tr.Spans {
			if sp.Cat == obs.CatExec && sp.Start > verdict {
				after++
			}
		}
		if after == 0 {
			t.Fatalf("pes=%d: no traced execution after the verdict: the probe's result left the trace", pes)
		}
	}
}

// TestTraceEvalListSampled: EvalList is head-sampled as Eval is, once per
// call, and the walk's evaluations share that one trace.
func TestTraceEvalListSampled(t *testing.T) {
	m := dgr.New(dgr.Options{PEs: 2, Seed: 5, TraceRate: 1})
	defer m.Close()
	vs, err := m.EvalList("[1+1, 2*3]")
	if err != nil || len(vs) != 2 || vs[0].Int != 2 || vs[1].Int != 6 {
		t.Fatalf("EvalList = %v, %v; want [2 6]", vs, err)
	}
	spans, _ := m.TraceSink().Spans()
	traces, globals := obs.AssembleTraces(spans)
	if len(traces) != 1 {
		t.Fatalf("a rate-1 EvalList recorded %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Orphans != 0 {
		t.Fatalf("trace %d: %d orphans", tr.ID, tr.Orphans)
	}
	// The walk is one tree: a single envelope that every cell and element
	// evaluation hangs off, so the critical path spans the whole trace.
	if len(tr.Roots) != 1 {
		t.Fatalf("trace %d has %d roots, want 1 (the walk's envelope)", tr.ID, len(tr.Roots))
	}
	rep := obs.CriticalPath(tr, globals)
	if rep.TotalNs != tr.End-tr.Start {
		t.Fatalf("trace %d: critical path covers %d ns of the trace's %d", tr.ID, rep.TotalNs, tr.End-tr.Start)
	}
	var blamed int64
	for _, ns := range rep.Blame {
		blamed += ns
	}
	if rep.TotalNs <= 0 || blamed != rep.TotalNs {
		t.Fatalf("trace %d: blame sums to %d, want TotalNs %d", tr.ID, blamed, rep.TotalNs)
	}
}

// recordedFib evaluates fib 12 on a seeded, recorded 4-PE machine of the
// given engine and returns the machine (still open) and its record.
func recordedFib(t *testing.T, engine string, opts dgr.Options) (*dgr.Machine, []sched.Entry) {
	t.Helper()
	opts.PEs, opts.Seed, opts.Engine, opts.RecordSchedule = 4, 42, engine, true
	m := dgr.New(opts)
	if v, err := m.Eval(detFib); err != nil || v.Int != 144 {
		m.Close()
		t.Fatalf("%s: eval = %v, %v; want 144", engine, v, err)
	}
	rec, err := m.ScheduleEvents()
	if err != nil {
		m.Close()
		t.Fatal(err)
	}
	return m, rec
}

// TestRecordSpawnDAG: the execution entries of a recorded run are its whole
// spawn DAG. Every nonzero Parent names an execution that precedes its
// child in the record, every reduction execution but the root demand has
// one, and a replay of the recording, which matches tasks without their
// causal word, stamps every Parent anew and reproduces each.
func TestRecordSpawnDAG(t *testing.T) {
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		// Collector cycles put marking executions in the record too.
		m, rec := recordedFib(t, engine, dgr.Options{GCInterval: 200, MTEvery: 1})
		m.Close()
		parents := map[uint64]uint64{} // execution number -> Parent
		roots := 0
		for _, e := range rec {
			if e.Op != sched.OpExec {
				continue
			}
			n := e.Seq + 1
			if e.Parent >= n {
				t.Fatalf("%s: execution %d names execution %d, which does not precede it", engine, n, e.Parent)
			}
			if e.Parent != 0 {
				if _, ok := parents[e.Parent]; !ok {
					t.Fatalf("%s: execution %d names execution %d, which is not in the record before it", engine, n, e.Parent)
				}
			}
			if e.Parent == 0 && e.Kind.IsReduction() {
				roots++
			}
			parents[n] = e.Parent
		}
		if roots != 1 {
			t.Fatalf("%s: %d reduction executions without a Parent, want 1 (the root demand)", engine, roots)
		}

		m2 := dgr.New(dgr.Options{PEs: 4, Seed: 42, Engine: engine, RecordSchedule: true,
			GCInterval: 200, MTEvery: 1})
		root, err := m2.Compile(detFib)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.ReplaySchedule(root, rec); err != nil {
			t.Fatalf("%s: replay: %v", engine, err)
		}
		rep, err := m2.ScheduleEvents()
		m2.Close()
		if err != nil {
			t.Fatal(err)
		}
		replayed, marking := 0, 0
		for _, e := range rep {
			if e.Op != sched.OpExec {
				continue
			}
			replayed++
			if e.Kind.IsMarking() {
				marking++
			}
			if want, ok := parents[e.Seq+1]; !ok || e.Parent != want {
				t.Fatalf("%s: replayed execution %d has Parent %d, the recording %d", engine, e.Seq+1, e.Parent, want)
			}
		}
		if replayed != len(parents) {
			t.Fatalf("%s: replay recorded %d executions, the recording %d", engine, replayed, len(parents))
		}
		t.Logf("%s: %d executions (%d marking), every Parent replayed", engine, replayed, marking)
	}
}

// TestRecordAgreesWithTrace: a trace node and a record entry are one
// identity. On an evaluation both traced and recorded, the exec spans are
// exactly the record's reduction executions, one for one by execution
// number, on the same PE and destination, each parented on its spawner's
// span (the eval envelope's, for the root demand).
func TestRecordAgreesWithTrace(t *testing.T) {
	for _, engine := range []string{dgr.EngineInterp, dgr.EngineCompiled} {
		m, rec := recordedFib(t, engine, dgr.Options{TraceRate: 1})
		spans, _ := m.TraceSink().Spans()
		m.Close()
		var eval uint64
		execs := map[uint64]obs.TraceSpan{}
		for _, sp := range spans {
			switch sp.Cat {
			case obs.CatEval:
				eval = sp.Span
			case obs.CatExec:
				n := sp.Span &^ obs.ExecSpan(0)
				if _, dup := execs[n]; sp.Span != obs.ExecSpan(n) || n == 0 || dup {
					t.Fatalf("%s: exec span %x is not one execution's", engine, sp.Span)
				}
				execs[n] = sp
			}
		}
		matched := 0
		for _, e := range rec {
			if e.Op != sched.OpExec || !e.Kind.IsReduction() {
				continue
			}
			sp, ok := execs[e.Seq+1]
			if !ok {
				t.Fatalf("%s: reduction execution %d has no exec span", engine, e.Seq+1)
			}
			parent := eval
			if e.Parent != 0 {
				parent = obs.ExecSpan(e.Parent)
			}
			if sp.Parent != parent || sp.PE != int(e.PE) || sp.Dst != uint64(e.Dst) || sp.Name != e.Kind.String() {
				t.Fatalf("%s: execution %d: span %+v, record %+v", engine, e.Seq+1, sp, e)
			}
			matched++
		}
		if matched != len(execs) {
			t.Fatalf("%s: %d exec spans, %d of them the record's reduction executions", engine, len(execs), matched)
		}
		t.Logf("%s: %d exec spans, each a reduction execution of the record", engine, matched)
	}
}

// TestReplayLogPredatesParent: the checked-in false-deadlock log was
// recorded before entries carried Parent, and replays unregenerated
// (TestFalseDeadlockReplayRegression), since a replay matches tasks without
// their causal word.
func TestReplayLogPredatesParent(t *testing.T) {
	b, err := os.ReadFile("internal/check/testdata/false_deadlock_replay.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte(`"parent"`)) {
		t.Fatal(`the checked-in replay log has "parent" fields; it was regenerated`)
	}
}
