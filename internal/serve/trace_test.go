package serve

// End-to-end lineage tracing through the serving layer: a request sampled
// at admission must come back with a trace ID, assemble into the
// request → admission/queue-wait/memo/eval/settle phase DAG at
// /debug/traces.json, carry exact per-category blame, and surface as the
// tenant's slowest-trace exemplar on /metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"dgr"
	"dgr/internal/obs"
)

func TestServeRequestProducesTrace(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Machine: dgr.Options{TraceRate: 1}})

	j, err := s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	view, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if view.Status != StatusDone {
		t.Fatalf("status = %s, want done", view.Status)
	}
	if view.TraceID == "" {
		t.Fatal("rate-1.0 request came back without a trace_id")
	}

	spans, _ := s.TraceSink().Spans()
	traces, globals := obs.AssembleTraces(spans)
	tr := findTrace(t, traces, view.TraceID)
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "request" {
		t.Fatalf("roots = %+v, want the request envelope", tr.Roots)
	}
	names := map[string]int{}
	for _, sp := range tr.Spans {
		names[sp.Name]++
	}
	for _, phase := range []string{"request", "admission", "queue-wait", "memo", "eval", "settle"} {
		if names[phase] == 0 {
			t.Fatalf("trace missing %q phase span; got %v", phase, names)
		}
	}
	// The eval envelope must contain real task executions from the machine.
	execs := 0
	for _, sp := range tr.Spans {
		if sp.Cat == obs.CatExec {
			execs++
		}
	}
	if execs == 0 {
		t.Fatalf("trace has no task exec spans under the eval envelope; got %v", names)
	}

	rep := obs.CriticalPath(tr, globals)
	var blamed int64
	for _, ns := range rep.Blame {
		blamed += ns
	}
	if blamed != rep.TotalNs {
		t.Fatalf("blame sums to %d, want TotalNs %d", blamed, rep.TotalNs)
	}

	// The traced request becomes the tenant's slowest-trace exemplar.
	for _, tp := range s.TenantProms() {
		if tp.Name != "alice" {
			continue
		}
		if tp.SlowestTraceID != view.TraceID || tp.SlowestUs <= 0 {
			t.Fatalf("exemplar = %q/%dus, want %q with positive latency",
				tp.SlowestTraceID, tp.SlowestUs, view.TraceID)
		}
		return
	}
	t.Fatal("tenant alice missing from TenantProms")
}

// findTrace resolves the hex trace_id a JobView carries back to its
// assembled trace.
func findTrace(t *testing.T, traces []*obs.TraceAssembly, hexID string) *obs.TraceAssembly {
	t.Helper()
	var id uint64
	if _, err := fmt.Sscanf(hexID, "%x", &id); err != nil {
		t.Fatalf("trace_id %q not hex: %v", hexID, err)
	}
	for _, tr := range traces {
		if tr.ID == id {
			return tr
		}
	}
	t.Fatalf("trace %q not among %d assembled traces", hexID, len(traces))
	return nil
}

func TestServeMemoHitTraced(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Machine: dgr.Options{TraceRate: 1}})
	jc, err := s.Submit(Request{Tenant: "a", Program: "6 * 7"})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	if _, err := jc.Wait(context.Background()); err != nil {
		t.Fatalf("cold wait: %v", err)
	}
	jw, err := s.Submit(Request{Tenant: "a", Program: "6 * 7"})
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	view, err := jw.Wait(context.Background())
	if err != nil {
		t.Fatalf("warm wait: %v", err)
	}
	if view.TraceID == "" {
		t.Fatal("traced server returned no trace_id for the warm hit")
	}
	spans, _ := s.TraceSink().Spans()
	traces, _ := obs.AssembleTraces(spans)
	tr := findTrace(t, traces, view.TraceID)
	// A memo hit short-circuits in Submit: the trace is just the request
	// envelope plus the memo span annotated "hit" — no queue-wait or eval.
	var memo *obs.TraceSpan
	for i := range tr.Spans {
		if tr.Spans[i].Name == "memo" {
			memo = &tr.Spans[i]
		}
	}
	if memo == nil || !strings.Contains(memo.Note, "hit") {
		t.Fatalf("warm trace missing a memo-hit span: %+v", tr.Spans)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "eval" || sp.Name == "queue-wait" {
			t.Fatalf("memo hit should not carry an %s span; spans %+v", sp.Name, tr.Spans)
		}
	}
}

func TestHTTPTracesEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Machine: dgr.Options{TraceRate: 1}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, data := postEval(t, ts, `{"tenant":"bob","program":"2 + 3"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status = %d, body %s", resp.StatusCode, data)
	}
	var view JobView
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatalf("decode view: %v", err)
	}
	if view.TraceID == "" {
		t.Fatal("HTTP eval on a traced server returned no trace_id")
	}

	tr, err := http.Get(ts.URL + "/debug/traces.json")
	if err != nil {
		t.Fatalf("GET /debug/traces.json: %v", err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("traces status = %d", tr.StatusCode)
	}
	var doc obs.TraceDoc
	if err := json.NewDecoder(tr.Body).Decode(&doc); err != nil {
		t.Fatalf("decode doc: %v", err)
	}
	if len(doc.Traces) == 0 {
		t.Fatal("traces doc empty after a traced request")
	}
	found := false
	for _, rep := range doc.Traces {
		if fmt.Sprintf("%x", rep.ID) == view.TraceID {
			found = true
			if len(rep.Crit.Path) == 0 || rep.TotalNs <= 0 {
				t.Fatalf("trace %q has no critical-path analysis: %+v", view.TraceID, rep.Crit)
			}
		}
	}
	if !found {
		t.Fatalf("trace %q not in /debug/traces.json", view.TraceID)
	}

	// The slowest-trace exemplar gauge ties /metrics back to the trace ID.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mdata, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metric := fmt.Sprintf(`dgr_tenant_slowest_trace_us{tenant="bob",trace=%q}`, view.TraceID)
	if !strings.Contains(string(mdata), metric) {
		t.Fatalf("/metrics missing exemplar %s in:\n%s", metric, mdata)
	}
}

func TestHTTPTracesDisabled(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1}) // no TraceRate
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/debug/traces.json")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404 when tracing is off", resp.StatusCode)
	}
}

// TestCloseSettlesQueuedTracedJob: a traced job that Close fails before
// dispatch ends where every job ends, so its trace is whole — the root
// "request" span its admission span hangs off, and no orphan — and its
// latency is observed like any other job's.
func TestCloseSettlesQueuedTracedJob(t *testing.T) {
	s := New(Options{Workers: 1, Machine: dgr.Options{TraceRate: 1}})
	busy, err := s.Submit(Request{Tenant: "a", Program: "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 18"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for busy.View().Status == StatusQueued {
		runtime.Gosched()
	}
	queued, err := s.Submit(Request{Tenant: "b", Program: "6 * 7"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s.Close()
	if v := busy.View(); v.Status != StatusDone {
		t.Fatalf("the busy job = %+v, want done: it was dispatched before Close", v)
	}
	view := queued.View()
	if view.Status != StatusFailed || view.Err == nil || view.Err.Code != CodeClosed {
		t.Fatalf("the queued job = %+v, want failed/%s", view, CodeClosed)
	}
	spans, _ := s.TraceSink().Spans()
	traces, _ := obs.AssembleTraces(spans)
	tr := findTrace(t, traces, view.TraceID)
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "request" || tr.Orphans != 0 {
		names := []string{}
		for _, r := range tr.Roots {
			names = append(names, r.Name)
		}
		t.Fatalf("the queued job's trace has roots %v and %d orphans in %d spans, want the request span alone and 0",
			names, tr.Orphans, len(tr.Spans))
	}
	for _, tp := range s.TenantProms() {
		if tp.Name == "b" && tp.SlowestTraceID != view.TraceID {
			t.Fatalf("tenant b's slowest trace = %q, want the job Close failed, %q", tp.SlowestTraceID, view.TraceID)
		}
	}
}
