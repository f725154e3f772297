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
	"slices"
	"testing"

	"dgr"
	"dgr/internal/fabric"
	"dgr/internal/obs"
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
		Capacity:       1 << 14,
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
		Capacity:  1 << 14,
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
		Capacity:  1 << 15,
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
		Capacity:  1 << 14,
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
	m2 := dgr.New(dgr.Options{PEs: 1, Capacity: 1 << 12})
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
		Capacity:   1 << 14,
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
		Capacity:   1 << 12, // small partitions: allocation spills across them early
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
	m := dgr.New(dgr.Options{PEs: 2, Seed: 3, Capacity: 1 << 14, TraceRate: 0.5})
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
	m := dgr.New(dgr.Options{PEs: 2, Seed: 5, Capacity: 1 << 14, TraceRate: 1})
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
