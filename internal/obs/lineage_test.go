package obs

import "testing"

// A hand-built request trace exercising every span kind the runtime emits:
//
//	request [0,1000]
//	├── admission [0,50]       (serve)
//	├── queue-wait [50,200]    (queue)
//	├── eval [200,950]         (eval)
//	│   └── demand exec [250,400] Queue=30 (born 220)
//	│       └── result exec [500,900] Queue=100 (born 400)
//	│           └── steal point @450
//	└── settle [950,1000]      (serve)
//	global gc interval [300,350]
func testSpans() []TraceSpan {
	return []TraceSpan{
		{Trace: 7, Span: 1, Name: "request", Cat: CatServe, PE: TIDEval, Start: 0, End: 1000},
		{Trace: 7, Span: 2, Parent: 1, Name: "admission", Cat: CatServe, PE: TIDEval, Start: 0, End: 50},
		{Trace: 7, Span: 3, Parent: 1, Name: "queue-wait", Cat: CatQueue, PE: TIDEval, Start: 50, End: 200},
		{Trace: 7, Span: 4, Parent: 1, Name: "eval", Cat: CatEval, PE: TIDEval, Start: 200, End: 950},
		{Trace: 7, Span: 5, Parent: 4, Name: "demand", Cat: CatExec, PE: 0, Start: 250, End: 400, Queue: 30},
		{Trace: 7, Span: 6, Parent: 5, Name: "result", Cat: CatExec, PE: 1, Start: 500, End: 900, Queue: 100},
		{Trace: 7, Span: 7, Parent: 6, Name: "steal", Cat: CatSteal, PE: 1, Start: 450, End: 450},
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
		// [300,350], eval remainder [200,220] + tail-gap [900,950].
		CatExec: 570,
		// The global M_R interval overlapping demand's execution.
		CatGC: 50,
		// Post-steal wait [450,500] on the thief's pool.
		CatSteal: 50,
		// queue-wait [50,200] + pre-steal wait [400,450] + demand's own
		// spawn-to-exec wait [220,250].
		CatQueue: 230,
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
		s.Record(TraceSpan{Trace: 1, Span: uint32(i + 1), Start: int64(i)})
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
		s.Record(TraceSpan{Trace: 2, Span: uint32(100 + i)})
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
