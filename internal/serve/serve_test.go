package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"dgr"
	"dgr/internal/task"
	"dgr/internal/workload"
)

const fibSrc = "let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 12"

// newTestServer builds a small checked server and registers its Close.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	opts.Machine.Check = true
	s := New(opts)
	t.Cleanup(s.Close)
	return s
}

// newIdleServer builds a server with NO worker goroutines, so queued jobs
// stay queued — the deterministic way to probe admission and dispatch order.
func newIdleServer(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*Job),
		cache:   newMemoCache(opts.CacheEntries),
	}
	s.cond = sync.NewCond(&s.mu)
	for b := range s.credits {
		s.credits[b] = bandWeight(uint8(b))
	}
	return s
}

func TestEvalAndMemoCache(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})

	j, err := s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	cold, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("cold wait: %v", err)
	}
	if cold.Status != StatusDone || cold.Result == nil {
		t.Fatalf("cold job = %+v, want done with result", cold)
	}
	if cold.CacheHit {
		t.Fatal("cold eval reported a cache hit")
	}
	if cold.Result.Rendered != "144" {
		t.Fatalf("fib 12 = %q, want 144", cold.Result.Rendered)
	}

	// Warm rerun, different layout, same canonical digest: served from the
	// cache, byte-identical to the cold result.
	warm, err := s.Submit(Request{
		Tenant:  "bob",
		Program: "let fib n =\n  if n < 2 then n -- memoized\n  else fib (n-1) + fib (n-2)\nin fib 12",
	})
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	wv, err := warm.Wait(context.Background())
	if err != nil {
		t.Fatalf("warm wait: %v", err)
	}
	if !wv.CacheHit {
		t.Fatalf("warm job = %+v, want cache hit", wv)
	}
	if wv.Digest != cold.Digest {
		t.Fatalf("digest mismatch: cold %s warm %s", cold.Digest, wv.Digest)
	}
	if wv.Result.Rendered != cold.Result.Rendered {
		t.Fatalf("warm result %q != cold %q", wv.Result.Rendered, cold.Result.Rendered)
	}
	cs := s.CacheStats()
	if cs.Hits < 1 || cs.Misses < 1 || cs.Entries < 1 {
		t.Fatalf("cache stats = %+v, want >=1 hit, miss, entry", cs)
	}
}

// A compiled-engine pool serves the same results as the interpreted one,
// and a warm rerun (layout-changed, digest-identical source) still comes
// from the memo cache rather than a fresh compile.
func TestEvalCompiledEngineWarmRerun(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, Machine: dgr.Options{Engine: dgr.EngineCompiled}})

	j, err := s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if err != nil {
		t.Fatalf("cold submit: %v", err)
	}
	cold, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("cold wait: %v", err)
	}
	if cold.Status != StatusDone || cold.Result == nil {
		t.Fatalf("cold job = %+v, want done with result", cold)
	}
	if cold.Result.Rendered != "144" {
		t.Fatalf("compiled fib 12 = %q, want 144", cold.Result.Rendered)
	}

	warm, err := s.Submit(Request{
		Tenant:  "bob",
		Program: "let fib n =\n  if n < 2 then n -- compiled, memoized\n  else fib (n-1) + fib (n-2)\nin fib 12",
	})
	if err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	wv, err := warm.Wait(context.Background())
	if err != nil {
		t.Fatalf("warm wait: %v", err)
	}
	if !wv.CacheHit {
		t.Fatalf("warm job = %+v, want cache hit", wv)
	}
	if wv.Digest != cold.Digest || wv.Result.Rendered != cold.Result.Rendered {
		t.Fatalf("warm = %q/%s, cold = %q/%s: want identical",
			wv.Result.Rendered, wv.Digest, cold.Result.Rendered, cold.Digest)
	}
}

func TestEvalListMode(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	const src = "let upto a b = if a > b then [] else a : upto (a + 1) b in upto 1 4"

	j, err := s.Submit(Request{Tenant: "alice", Program: src, List: true})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, _ := j.Wait(context.Background())
	if v.Status != StatusDone {
		t.Fatalf("list job = %+v", v)
	}
	if v.Result.Rendered != "[1, 2, 3, 4]" || len(v.Result.Elems) != 4 {
		t.Fatalf("list result = %+v", v.Result)
	}

	// The scalar cache entry for the same digest must not satisfy a list
	// request, and vice versa: the key is mode-qualified.
	j2, err := s.Submit(Request{Tenant: "alice", Program: src})
	if err != nil {
		t.Fatalf("scalar submit: %v", err)
	}
	v2, _ := j2.Wait(context.Background())
	if v2.CacheHit {
		t.Fatal("scalar request hit the list-mode cache entry")
	}
}

func TestParseErrorIsStructured(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	_, err := s.Submit(Request{Tenant: "alice", Program: "let let let"})
	se, ok := err.(*Error)
	if !ok || se.Code != CodeParse {
		t.Fatalf("err = %v, want *Error{%s}", err, CodeParse)
	}
	if se.IsRejection() {
		t.Fatal("parse error classified as admission rejection")
	}
}

// TestAdmissionRejections manufactures each over-limit state and checks the
// rejection is a structured error with the right code — never a hang.
func TestAdmissionRejections(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, QueueDepth: 4})
	s.SetTenant("alice", TenantLimits{MaxInflight: 2, VertexQuota: 4096})

	// Tenant in-flight limit.
	s.mu.Lock()
	al := s.tenantLocked("alice")
	al.inflight = al.limits.MaxInflight
	s.mu.Unlock()
	_, err := s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if se, ok := err.(*Error); !ok || se.Code != CodeTenantInflight || !se.IsRejection() {
		t.Fatalf("inflight: err = %v, want rejection %s", err, CodeTenantInflight)
	}
	s.mu.Lock()
	al.inflight = 0
	s.mu.Unlock()

	// Tenant vertex quota: everything already charged.
	s.mu.Lock()
	al.charged = al.limits.VertexQuota
	s.mu.Unlock()
	_, err = s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if se, ok := err.(*Error); !ok || se.Code != CodeTenantQuota || !se.IsRejection() {
		t.Fatalf("quota: err = %v, want rejection %s", err, CodeTenantQuota)
	}
	s.mu.Lock()
	al.charged = 0
	s.mu.Unlock()

	// Global queue bound.
	s.mu.Lock()
	s.queued = s.opts.QueueDepth
	s.mu.Unlock()
	_, err = s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if se, ok := err.(*Error); !ok || se.Code != CodeQueueFull || !se.IsRejection() {
		t.Fatalf("queue: err = %v, want rejection %s", err, CodeQueueFull)
	}
	s.mu.Lock()
	s.queued = 0
	s.mu.Unlock()

	// The tenant rejection counters made it into the exposition rows.
	for _, tp := range s.TenantProms() {
		if tp.Name != "alice" {
			continue
		}
		if tp.RejectedInflight != 1 || tp.RejectedQuota != 1 || tp.RejectedQueue != 1 {
			t.Fatalf("alice prom row = %+v, want one rejection of each kind", tp)
		}
	}
}

// TestQuotaClampAdmitsOversizedEstimate: an EWMA estimate above the whole
// quota must not wedge the tenant — the charge clamps to the quota so
// exactly one such request runs at a time.
func TestQuotaClampAdmitsOversizedEstimate(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.SetTenant("alice", TenantLimits{VertexQuota: 64}) // far below estimateVertices

	j, err := s.Submit(Request{Tenant: "alice", Program: fibSrc})
	if err != nil {
		t.Fatalf("submit with clamped charge: %v", err)
	}
	v, _ := j.Wait(context.Background())
	if v.Status != StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
}

// TestWRRDispatchOrder drives nextJobLocked directly on an idle server:
// vital tenants must get ~4 dequeues per reserve dequeue, and within a band
// a weight-2 tenant must dequeue twice per ring visit.
func TestWRRDispatchOrder(t *testing.T) {
	s := newIdleServer(Options{QueueDepth: 128})
	s.SetTenant("vip", TenantLimits{Band: task.BandVital, MaxInflight: 64})
	s.SetTenant("std", TenantLimits{Band: task.BandEager, MaxInflight: 64})
	s.SetTenant("bulk", TenantLimits{Band: task.BandReserve, MaxInflight: 64})

	for i := 0; i < 8; i++ {
		for _, tn := range []string{"vip", "std", "bulk"} {
			prog := fmt.Sprintf("%d + %d", i, len(tn)) // distinct digests
			if _, err := s.Submit(Request{Tenant: tn, Program: prog}); err != nil {
				t.Fatalf("submit %s/%d: %v", tn, i, err)
			}
		}
	}

	counts := map[string]int{}
	s.mu.Lock()
	for i := 0; i < 14; i++ { // two full credit rounds (4+2+1)
		j := s.nextJobLocked()
		if j == nil {
			break
		}
		counts[j.tenant.name]++
	}
	s.mu.Unlock()
	if counts["vip"] != 8 || counts["std"] != 4 || counts["bulk"] != 2 {
		t.Fatalf("dispatch counts = %v, want vip:8 std:4 bulk:2 (4:2:1 credits)", counts)
	}

	// Within one band, Weight grants consecutive dequeues.
	s2 := newIdleServer(Options{QueueDepth: 128})
	s2.SetTenant("heavy", TenantLimits{Band: task.BandEager, Weight: 2, MaxInflight: 64})
	s2.SetTenant("light", TenantLimits{Band: task.BandEager, Weight: 1, MaxInflight: 64})
	for i := 0; i < 4; i++ {
		for _, tn := range []string{"heavy", "light"} {
			prog := fmt.Sprintf("%d * %d", i, len(tn))
			if _, err := s2.Submit(Request{Tenant: tn, Program: prog}); err != nil {
				t.Fatalf("submit %s/%d: %v", tn, i, err)
			}
		}
	}
	var order []string
	s2.mu.Lock()
	for i := 0; i < 6; i++ {
		if j := s2.nextJobLocked(); j != nil {
			order = append(order, j.tenant.name)
		}
	}
	s2.mu.Unlock()
	want := []string{"heavy", "heavy", "light", "heavy", "heavy", "light"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("within-band order = %v, want %v", order, want)
	}
}

// TestEvalFailureRecycles: a stuck program must fail with a structured code
// and cause the worker to swap in a fresh machine; the pool keeps serving.
func TestEvalFailureRecycles(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})

	j, err := s.Submit(Request{Tenant: "alice", Program: "if 1 then 2 else 3"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v, _ := j.Wait(context.Background())
	if v.Status != StatusFailed || v.Err == nil || v.Err.Code != CodeStuck {
		t.Fatalf("stuck job = %+v, want failed/%s", v, CodeStuck)
	}
	// The job completes before the worker swaps machines; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Recycles != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("recycles = %d, want 1", s.Stats().Recycles)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The recycled pool still evaluates.
	j2, err := s.Submit(Request{Tenant: "alice", Program: "2 + 3"})
	if err != nil {
		t.Fatalf("post-recycle submit: %v", err)
	}
	v2, _ := j2.Wait(context.Background())
	if v2.Status != StatusDone || v2.Result.Rendered != "5" {
		t.Fatalf("post-recycle job = %+v, want 5", v2)
	}
}

func TestCloseFailsQueuedJobs(t *testing.T) {
	s := newIdleServer(Options{})
	j, err := s.Submit(Request{Tenant: "alice", Program: "1 + 1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	s.Close()
	v := j.View()
	if v.Status != StatusFailed || v.Err == nil || v.Err.Code != CodeClosed {
		t.Fatalf("job after close = %+v, want failed/%s", v, CodeClosed)
	}
	if _, err := s.Submit(Request{Tenant: "alice", Program: "2 + 2"}); err == nil {
		t.Fatal("submit after close succeeded")
	}
	s.Close() // idempotent
}

// TestServeLoadInProcess runs the acceptance scenario end to end without
// HTTP: 4 concurrent tenants, two rounds, warm-cache hits, byte-identical
// reruns, zero checker violations.
func TestServeLoadInProcess(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	rep, err := workload.RunServeLoad(workload.ServeLoadConfig{
		Tenants: 4, Programs: workload.ServePrograms(6), Rounds: 2, Concurrency: 2,
	}, s)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if rep.OK == 0 {
		t.Fatalf("no request succeeded: %+v", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d rerun mismatches", rep.Mismatches)
	}
	if rep.CacheHits == 0 {
		t.Fatal("two rounds produced zero cache hits")
	}
	if viol := s.Violations(); len(viol) != 0 {
		t.Fatalf("checker violations: %v", viol)
	}
	if len(rep.ByTenant) != 4 {
		t.Fatalf("tenant rows = %d, want 4", len(rep.ByTenant))
	}
}

func TestJobWaitContext(t *testing.T) {
	s := newIdleServer(Options{}) // nothing will run the job
	j, err := s.Submit(Request{Tenant: "alice", Program: "1 + 1"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	v, werr := j.Wait(ctx)
	if werr == nil {
		t.Fatal("Wait returned without the job finishing")
	}
	if v.Status != StatusQueued {
		t.Fatalf("status = %s, want queued", v.Status)
	}
	s.Close()
}

// TestTenantCap: a server keeps at most maxTenants tenants. Past the cap a
// new name, anonymous included, is refused with CodeTenantLimit (HTTP 403, not
// a retryable rejection) before any state or /metrics series exists for it;
// a known name is still served, and the operator's SetTenant still configures.
func TestTenantCap(t *testing.T) {
	s := newIdleServer(Options{})
	for i := 0; i < maxTenants; i++ {
		_, err := s.Submit(Request{Tenant: fmt.Sprintf("t%d", i), Program: "1 +"})
		if se, ok := err.(*Error); !ok || se.Code != CodeParse {
			t.Fatalf("tenant %d: err = %v, want %s", i, err, CodeParse)
		}
	}
	for _, name := range []string{"one-too-many", ""} {
		_, err := s.Submit(Request{Tenant: name, Program: "1 + 1"})
		se, ok := err.(*Error)
		if !ok || se.Code != CodeTenantLimit || se.Limit != maxTenants || se.IsRejection() || errorStatus(se) != http.StatusForbidden {
			t.Fatalf("new tenant %q past the cap: err = %#v, want %s, 403", name, err, CodeTenantLimit)
		}
	}
	if n := s.Stats().Tenants; n != maxTenants {
		t.Fatalf("%d tenants kept, want %d", n, maxTenants)
	}
	for _, p := range s.TenantProms() {
		if p.Name == "one-too-many" || p.Name == "anonymous" {
			t.Fatalf("a refused tenant has a /metrics series: %+v", p)
		}
	}
	if _, err := s.Submit(Request{Tenant: "t7", Program: "1 + 1"}); err != nil {
		t.Fatalf("a known tenant past the cap: %v", err)
	}
	s.SetTenant("configured", TenantLimits{Weight: 2})
	if n := s.Stats().Tenants; n != maxTenants+1 {
		t.Fatalf("%d tenants after SetTenant, want %d", n, maxTenants+1)
	}
}
