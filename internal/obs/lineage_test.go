package obs

import (
	"strings"
	"testing"
)

// A hand-built request trace exercising every span kind the runtime emits.
// Exec spans are named by execution number; the steal names its task's
// spawner (the demand) and destination, and assembly hangs it off the
// execution it delayed:
//
//	request [0,1000]
//	├── admission [0,50]       (serve)
//	├── queue-wait [50,200]    (queue)
//	├── eval [200,950]         (eval)
//	│   └── demand exec [250,400] Queue=50 (from the eval's start)
//	│       └── result exec [500,900] Queue=100 (from the demand's end)
//	│           └── steal point @450
//	└── settle [950,1000]      (serve)
//	global gc interval [300,350]
func testSpans() []TraceSpan {
	return []TraceSpan{
		{Trace: 7, Span: 1, Name: "request", Cat: CatServe, PE: TIDEval, Start: 0, End: 1000},
		{Trace: 7, Span: 2, Parent: 1, Name: "admission", Cat: CatServe, PE: TIDEval, Start: 0, End: 50},
		{Trace: 7, Span: 3, Parent: 1, Name: "queue-wait", Cat: CatQueue, PE: TIDEval, Start: 50, End: 200},
		{Trace: 7, Span: 4, Parent: 1, Name: "eval", Cat: CatEval, PE: TIDEval, Start: 200, End: 950},
		{Trace: 7, Span: ExecSpan(5), Parent: 4, Name: "demand", Cat: CatExec, PE: 0, Start: 250, End: 400, Dst: 10},
		{Trace: 7, Span: ExecSpan(6), Parent: ExecSpan(5), Name: "result", Cat: CatExec, PE: 1, Start: 500, End: 900, Dst: 11},
		{Trace: 7, Span: 7, Parent: ExecSpan(5), Name: "steal", Cat: CatSteal, PE: 1, Start: 450, End: 450, Dst: 11},
		{Trace: 7, Span: 8, Parent: 1, Name: "settle", Cat: CatServe, PE: TIDEval, Start: 950, End: 1000},
		{Span: 9, Name: "M_R", Cat: CatGC, PE: TIDCollector, Start: 300, End: 350},
	}
}

func TestAssembleTracesRebuildsDAG(t *testing.T) {
	traces, globals := AssembleTraces(testSpans())
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	if len(globals) != 1 || globals[0].Name != "M_R" {
		t.Fatalf("globals = %+v, want one M_R interval", globals)
	}
	tr := traces[0]
	if tr.ID != 7 || tr.Orphans != 0 {
		t.Fatalf("ID=%d orphans=%d, want 7/0", tr.ID, tr.Orphans)
	}
	if tr.Start != 0 || tr.End != 1000 {
		t.Fatalf("bounds [%d,%d], want [0,1000]", tr.Start, tr.End)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "request" {
		t.Fatalf("roots = %d (%v), want the single request span", len(tr.Roots), tr.Roots)
	}
	root := tr.Roots[0]
	if len(root.Children) != 4 {
		t.Fatalf("request children = %d, want 4", len(root.Children))
	}
	var eval *TraceNode
	for _, c := range root.Children {
		if c.Name == "eval" {
			eval = c
		}
	}
	if eval == nil {
		t.Fatal("eval span not a child of request")
	}
	if len(eval.Children) != 1 || eval.Children[0].Name != "demand" {
		t.Fatalf("eval children = %+v, want [demand]", eval.Children)
	}
	demand := eval.Children[0]
	if len(demand.Children) != 1 || demand.Children[0].Name != "result" {
		t.Fatalf("demand children = %+v, want [result]", demand.Children)
	}
	result := demand.Children[0]
	if len(result.Children) != 1 || result.Children[0].Cat != CatSteal {
		t.Fatalf("result children = %+v, want [steal]", result.Children)
	}
}

func TestAssembleTracesOrphans(t *testing.T) {
	spans := testSpans()[4:6] // demand+result; their parents are missing
	traces, _ := AssembleTraces(spans)
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	// demand's parent (4) was evicted: it becomes a root and counts as an
	// orphan; result still hangs off demand.
	if tr.Orphans != 1 || len(tr.Roots) != 1 || tr.Roots[0].Name != "demand" {
		t.Fatalf("orphans=%d roots=%v, want 1 orphan rooted at demand", tr.Orphans, tr.Roots)
	}
}

func TestCriticalPathBlame(t *testing.T) {
	traces, globals := AssembleTraces(testSpans())
	rep := CriticalPath(traces[0], globals)
	if rep.TotalNs != 1000 {
		t.Fatalf("TotalNs = %d, want 1000", rep.TotalNs)
	}
	// The segments must partition [0,1000]: contiguous, no overlap.
	var sum int64
	cursor := rep.Start
	for i, sg := range rep.Path {
		if sg.Start != cursor {
			t.Fatalf("segment %d starts at %d, want %d (gap or overlap)", i, sg.Start, cursor)
		}
		if sg.End < sg.Start {
			t.Fatalf("segment %d inverted: [%d,%d]", i, sg.Start, sg.End)
		}
		sum += sg.End - sg.Start
		cursor = sg.End
	}
	if cursor != rep.End {
		t.Fatalf("path ends at %d, want %d", cursor, rep.End)
	}
	if sum != rep.TotalNs {
		t.Fatalf("segments sum to %d, want %d", sum, rep.TotalNs)
	}
	want := map[string]int64{
		// 950→1000 settle + 0→50 admission.
		CatServe: 100,
		// Exec work: result [500,900], demand [250,400] minus the gc carve
		// [300,350], eval tail-gap [900,950].
		CatExec: 550,
		// The global M_R interval overlapping demand's execution.
		CatGC: 50,
		// Post-steal wait [450,500] on the thief's pool.
		CatSteal: 50,
		// queue-wait [50,200] + pre-steal wait [400,450] + demand's own
		// wait from the eval's start [200,250].
		CatQueue: 250,
	}
	for cat, ns := range want {
		if rep.Blame[cat] != ns {
			t.Errorf("blame[%s] = %d, want %d (full: %v)", cat, rep.Blame[cat], ns, rep.Blame)
		}
	}
	var total int64
	for _, ns := range rep.Blame {
		total += ns
	}
	if total != rep.TotalNs {
		t.Errorf("blame sums to %d, want %d", total, rep.TotalNs)
	}
}

// TestAnnotationsAttachToDelayedExec: a steal, a fabric hop and a fabric
// retry name their task's spawner and destination, as the runtime records
// them, and assembly hangs them off the execution they delayed — the
// spawner's first child on that destination to start after them, not an
// earlier sibling on it nor one on another vertex. The blame then splits
// that execution's wait, from its spawner's end to its start, into queue,
// fabric and steal:
//
//	eval [0,1000]
//	└── A exec [10,100]
//	    ├── D exec [105,110] on v7, before the annotations
//	    ├── C exec [120,130] on v8
//	    └── B exec [600,900] on v7, waits from 100
//	        ├── fabric-hop [150,300]
//	        ├── fabric-retry @200
//	        └── steal @400
func TestAnnotationsAttachToDelayedExec(t *testing.T) {
	a := ExecSpan(1)
	spans := []TraceSpan{
		{Trace: 5, Span: 1, Name: "eval", Cat: CatEval, PE: TIDEval, Start: 0, End: 1000},
		{Trace: 5, Span: a, Parent: 1, Name: "demand", Cat: CatExec, Start: 10, End: 100, Dst: 5},
		{Trace: 5, Span: ExecSpan(3), Parent: a, Name: "demand", Cat: CatExec, Start: 105, End: 110, Dst: 7},
		{Trace: 5, Span: ExecSpan(4), Parent: a, Name: "demand", Cat: CatExec, Start: 120, End: 130, Dst: 8},
		{Trace: 5, Span: ExecSpan(9), Parent: a, Name: "result", Cat: CatExec, PE: 2, Start: 600, End: 900, Dst: 7},
		{Trace: 5, Span: 2, Parent: a, Name: "fabric-hop", Cat: CatFabric, PE: 1, Start: 150, End: 300, Dst: 7},
		{Trace: 5, Span: 3, Parent: a, Name: "fabric-retry", Cat: CatFabric, PE: 1, Start: 200, End: 200, Dst: 7},
		{Trace: 5, Span: 4, Parent: a, Name: "steal", Cat: CatSteal, PE: 2, Start: 400, End: 400, Dst: 7},
	}
	traces, globals := AssembleTraces(spans)
	if len(traces) != 1 || traces[0].Orphans != 0 || len(traces[0].Roots) != 1 {
		t.Fatalf("assembled %d traces (%+v), want one with a single root and no orphans", len(traces), traces)
	}
	tr := traces[0]
	var b *TraceNode
	for _, c := range tr.Roots[0].Children[0].Children {
		if len(c.Children) > 0 && c.Span != ExecSpan(9) {
			t.Fatalf("exec %x on v%d has children %+v; only the delayed execution may", c.Span, c.Dst, c.Children)
		}
		if c.Span == ExecSpan(9) {
			b = c
		}
	}
	if b == nil || b.Queue != 500 {
		t.Fatalf("delayed execution %+v, want B with Queue 500 (600 minus its spawner's end)", b)
	}
	var names []string
	for _, c := range b.Children {
		names = append(names, c.Name)
	}
	if want := "fabric-hop fabric-retry steal"; strings.Join(names, " ") != want {
		t.Fatalf("B's children = %v, want %s", names, want)
	}

	rep := CriticalPath(tr, globals)
	want := map[string]int64{
		// B [600,900], A [10,100], eval's tail [900,1000].
		CatExec: 490,
		// After the steal [400,600].
		CatSteal: 200,
		// The hop [150,300].
		CatFabric: 150,
		// A's wait [0,10], B's before the hop [100,150] and between the hop
		// and the steal [300,400].
		CatQueue: 160,
	}
	var total int64
	for cat, ns := range rep.Blame {
		total += ns
		if ns != want[cat] {
			t.Errorf("blame[%s] = %d, want %d (full: %v)", cat, ns, want[cat], rep.Blame)
		}
	}
	if total != rep.TotalNs || rep.TotalNs != 1000 {
		t.Errorf("blame sums to %d, TotalNs %d, want both 1000", total, rep.TotalNs)
	}

	// An annotation whose task never ran in the trace is an orphan.
	lost := append(spans, TraceSpan{Trace: 5, Span: 5, Parent: a, Name: "steal", Cat: CatSteal, Start: 50, End: 50, Dst: 6})
	if traces, _ := AssembleTraces(lost); traces[0].Orphans != 1 {
		t.Fatalf("an annotation naming no execution: %d orphans, want 1", traces[0].Orphans)
	}
}

// TestGCBlameIsPerMachine: machines that share a sink record their
// collector phases side by side. A trace whose eval ran on machine 1 is
// blamed for machine 1's phase over its execution, and for nothing of
// machine 2's over the same interval.
func TestGCBlameIsPerMachine(t *testing.T) {
	spans := func(gcMach uint32) []TraceSpan {
		return []TraceSpan{
			{Trace: 3, Span: 1, Name: "eval", Cat: CatEval, PE: TIDEval, Start: 0, End: 100, Mach: 1},
			{Trace: 3, Span: 2, Parent: 1, Name: "demand", Cat: CatExec, PE: 0, Start: 10, End: 90},
			{Span: 3, Name: "M_R", Cat: CatGC, PE: TIDCollector, Start: 40, End: 60, Mach: gcMach},
		}
	}
	for _, tc := range []struct {
		gcMach uint32
		want   int64
	}{{1, 20}, {2, 0}} {
		traces, globals := AssembleTraces(spans(tc.gcMach))
		rep := CriticalPath(traces[0], globals)
		if rep.Blame[CatGC] != tc.want {
			t.Errorf("machine %d's phase over a machine-1 trace: gc blame %d, want %d (full: %v)",
				tc.gcMach, rep.Blame[CatGC], tc.want, rep.Blame)
		}
		var total int64
		for _, ns := range rep.Blame {
			total += ns
		}
		if total != rep.TotalNs {
			t.Errorf("machine %d's phase: blame sums to %d, want %d", tc.gcMach, total, rep.TotalNs)
		}
	}
}

func TestTraceSinkSampling(t *testing.T) {
	s := NewTraceSink(64, 0.25)
	hits := 0
	for i := 0; i < 400; i++ {
		if s.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("rate 0.25 over 400 decisions: %d sampled, want exactly 100 (deterministic accumulator)", hits)
	}
	s.Force()
	for i := 0; i < 10; i++ {
		if !s.Sample() {
			t.Fatal("forced sink must sample every request")
		}
	}
	if s.Rate() != 0.25 {
		t.Fatalf("Rate = %v, want 0.25", s.Rate())
	}
	var nilSink *TraceSink
	if nilSink.Sample() || nilSink.Rate() != 0 {
		t.Fatal("nil sink must be inert")
	}
	nilSink.Force() // must not panic
	nilSink.Record(TraceSpan{})
}

// TestTraceSinkEviction: the two retention classes wrap independently. Trace
// spans churning through their ring never evict a global record (the
// collector cycles forever on an idle server), global records churning
// through theirs never evict a trace span, and each class counts its own
// evictions.
func TestTraceSinkEviction(t *testing.T) {
	s := NewTraceSink(4, 1) // 4 trace spans, 1024 global records
	for i := 0; i < 10; i++ {
		s.Record(TraceSpan{Trace: 1, Span: uint64(i + 1), Start: int64(i)})
	}
	spans, dropped := s.Spans()
	if dropped != 6 || s.GlobalDropped() != 0 {
		t.Fatalf("dropped = %d trace / %d global, want 6 / 0", dropped, s.GlobalDropped())
	}
	if len(spans) != 4 || spans[0].Span != 7 || spans[3].Span != 10 {
		t.Fatalf("retained %+v, want spans 7..10 oldest-first", spans)
	}

	s.Record(TraceSpan{Name: "M_T", Cat: CatGC, PE: TIDCollector, Start: 1, End: 2})
	for i := 0; i < 8; i++ {
		s.Record(TraceSpan{Trace: 2, Span: uint64(100 + i)})
	}
	spans, dropped = s.Spans()
	if dropped != 14 || s.GlobalDropped() != 0 {
		t.Fatalf("dropped = %d trace / %d global, want 14 / 0", dropped, s.GlobalDropped())
	}
	if last := spans[len(spans)-1]; len(spans) != 5 || last.Trace != 0 || last.Name != "M_T" {
		t.Fatalf("global record evicted by trace-span churn: %+v", spans)
	}

	for i := 0; i < 1024+2; i++ {
		s.Record(TraceSpan{Name: "cycle", Cat: CatCollector, N: int64(i)})
	}
	spans, dropped = s.Spans()
	if dropped != 14 || s.GlobalDropped() != 3 {
		t.Fatalf("dropped = %d trace / %d global, want 14 / 3", dropped, s.GlobalDropped())
	}
	if len(spans) != 4+1024 || spans[0].Span != 104 || spans[3].Span != 107 {
		t.Fatalf("trace spans evicted by global churn: %d retained, first %+v", len(spans), spans[0])
	}
	if spans[4].N != 2 || spans[len(spans)-1].N != 1025 {
		t.Fatalf("global window = %d..%d, want 2..1025", spans[4].N, spans[len(spans)-1].N)
	}
}
