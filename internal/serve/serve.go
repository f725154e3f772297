// Package serve is the multi-tenant serving layer: a long-running pool of
// dgr.Machine workers fronted by admission control (bounded queue,
// per-tenant in-flight and vertex quotas), weighted-round-robin fair
// scheduling across tenants mapped onto the machine's priority bands, and
// a normal-form memo cache keyed by canonical program digest so repeated
// hot queries skip reduction entirely. cmd/dgr-serve exposes it over
// HTTP/JSON; internal/workload's serveload harness load-tests it.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"dgr"
	"dgr/internal/lang"
	"dgr/internal/metrics"
	"dgr/internal/obs"
)

// Structured rejection and failure codes. Admission rejections (queue,
// in-flight, quota) are the contract the load harness and clients key on:
// an over-limit request gets a code, never a hang.
const (
	CodeParse          = "parse_error"
	CodeQueueFull      = "queue_full"
	CodeTenantInflight = "tenant_inflight"
	CodeTenantQuota    = "tenant_quota"
	CodeTenantLimit    = "tenant_limit"
	CodeClosed         = "server_closed"
	CodeDeadlock       = "deadlock"
	CodeStuck          = "stuck"
	CodeBudget         = "budget_exhausted"
	CodeNotFound       = "not_found"
	CodeBadRequest     = "bad_request"
)

// Error is the structured error every rejection and failure surfaces.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Tenant  string `json:"tenant,omitempty"`
	Limit   int    `json:"limit,omitempty"`
	Current int    `json:"current,omitempty"`
}

func (e *Error) Error() string {
	if e.Tenant != "" {
		return fmt.Sprintf("serve: %s (tenant %q): %s", e.Code, e.Tenant, e.Message)
	}
	return fmt.Sprintf("serve: %s: %s", e.Code, e.Message)
}

// IsRejection reports whether e is an admission rejection (retryable by
// the client later) rather than an evaluation failure.
func (e *Error) IsRejection() bool {
	switch e.Code {
	case CodeQueueFull, CodeTenantInflight, CodeTenantQuota, CodeClosed:
		return true
	}
	return false
}

// Options configures a Server. The zero value is usable; each field's
// default is given with it.
type Options struct {
	// Workers is the machine-pool size (default 2).
	Workers int
	// Machine configures every pooled dgr.Machine (default PEs 2, Capacity
	// 1<<16; dgr.New defaults the rest). Worker i runs seed Machine.Seed+i.
	// Machine.TraceRate is the server's head-sampling rate: each submission
	// is sampled at it, and a sampled request's causal history — admission,
	// queue wait, memo probe, dispatch, the machine's spawn/steal/fabric
	// lineage, settle — is recorded into one sink shared by the whole pool
	// and assembled (with critical-path blame) at /debug/traces.json. The
	// pooled machines record into that sink at rate 0, so Machine.TraceSink
	// is not used.
	Machine dgr.Options

	// QueueDepth bounds the total queued (not yet running) jobs across all
	// tenants (default 256); admission beyond it is CodeQueueFull.
	QueueDepth int
	// CacheEntries bounds the normal-form memo cache (default 1024).
	CacheEntries int
	// DefaultLimits applies to tenants not configured via SetTenant
	// (defaults: MaxInflight 8, VertexQuota Machine.Capacity/2, BandEager,
	// weight 1).
	DefaultLimits TenantLimits
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Machine.PEs <= 0 {
		o.Machine.PEs = 2
	}
	if o.Machine.Capacity <= 0 {
		o.Machine.Capacity = 1 << 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 1024
	}
	if o.DefaultLimits.MaxInflight <= 0 {
		o.DefaultLimits.MaxInflight = 8
	}
	if o.DefaultLimits.VertexQuota <= 0 {
		o.DefaultLimits.VertexQuota = o.Machine.Capacity / 2
	}
	return o
}

const (
	// estimateVertices prices a tenant's first request against its vertex
	// quota, before any footprint has been observed.
	estimateVertices = 2048
	// jobHistory bounds how many finished jobs remain queryable by ID
	// (oldest evicted first).
	jobHistory = 4096
	// maxTenants bounds the tenants a server keeps: a tenant's state and its
	// /metrics series are never dropped, so Submit refuses a name it does
	// not know once this many are kept (CodeTenantLimit). Tenants SetTenant
	// configures count, and are never refused.
	maxTenants = 1024
)

// Request is one evaluation submission.
type Request struct {
	// Tenant names the submitting tenant: 1-64 bytes of [A-Za-z0-9._-], or
	// "" for the anonymous tenant. Submit refuses any other name.
	Tenant string `json:"tenant"`
	// Program is the source text to evaluate.
	Program string `json:"program"`
	// List forces every element of a list-valued program (EvalList);
	// otherwise the program is reduced to WHNF (Eval).
	List bool `json:"list,omitempty"`
}

// Result is a serialized normal form — what the memo cache stores and the
// API returns. Rendered is the canonical text form; warm-cache reruns
// return it byte-identical to the cold evaluation that populated the entry.
type Result struct {
	Kind     string   `json:"kind"`
	Rendered string   `json:"rendered"`
	Elems    []string `json:"elems,omitempty"`
}

// Job states.
const (
	StatusQueued  = "queued"
	StatusRunning = "running"
	StatusDone    = "done"
	StatusFailed  = "failed"
)

// Job is one admitted evaluation. All fields are guarded by the server
// mutex; read them through View/Wait.
type Job struct {
	s *Server

	id       string
	tenant   *tenant
	req      Request
	digest   string
	cost     int
	status   string
	cacheHit bool
	result   *Result
	err      *Error

	submitted time.Time
	started   time.Time
	evalDone  time.Time
	finished  time.Time
	done      chan struct{}

	// Lineage: nonzero when this request was head-sampled at admission.
	// rootSpan is the "request" envelope span every other span of the
	// trace — serve phases and the machine's task lineage — hangs off.
	trace    uint64
	rootSpan uint32
}

// JobView is an immutable snapshot of a Job. TraceID, when non-empty, is
// the lineage trace this request was sampled into (look it up in
// /debug/traces.json or `dgr-trace analyze`).
type JobView struct {
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant"`
	Status    string  `json:"status"`
	Digest    string  `json:"digest"`
	CacheHit  bool    `json:"cache_hit"`
	Result    *Result `json:"result,omitempty"`
	Err       *Error  `json:"error,omitempty"`
	ElapsedUs int64   `json:"elapsed_us"`
	TraceID   string  `json:"trace_id,omitempty"`
}

// ID returns the job's identifier (stable, safe without the lock).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// View snapshots the job.
func (j *Job) View() JobView {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.viewLocked()
}

func (j *Job) viewLocked() JobView {
	v := JobView{
		ID: j.id, Tenant: j.tenant.name, Status: j.status,
		Digest: j.digest, CacheHit: j.cacheHit, Result: j.result, Err: j.err,
	}
	if j.trace != 0 {
		v.TraceID = fmt.Sprintf("%x", j.trace)
	}
	switch j.status {
	case StatusDone, StatusFailed:
		v.ElapsedUs = j.finished.Sub(j.submitted).Microseconds()
	default:
		v.ElapsedUs = time.Since(j.submitted).Microseconds()
	}
	return v
}

// Wait blocks until the job finishes or ctx is done, returning the final
// (or, on ctx expiry, current) snapshot.
func (j *Job) Wait(ctx context.Context) (JobView, error) {
	select {
	case <-j.done:
		return j.View(), nil
	case <-ctx.Done():
		return j.View(), ctx.Err()
	}
}

// worker owns one pooled machine. The machine pointer is guarded by the
// server mutex (the owning goroutine swaps it on recycle; exposition
// endpoints read it), but only the worker goroutine ever calls Eval on it.
type worker struct {
	id int
	m  *dgr.Machine
}

// Server is the multi-tenant serving layer.
type Server struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	closed  bool
	tenants map[string]*tenant
	jobs    map[string]*Job
	history []string // finished job IDs, oldest first
	queued  int      // jobs admitted but not yet dispatched
	running int
	nextID  uint64

	// rings hold, per scheduling band, the tenants that currently have
	// queued jobs; credits implement the weighted round-robin across bands.
	rings   [3][]*tenant
	cursor  [3]int
	credits [3]int

	workers    []*worker
	wg         sync.WaitGroup
	recycles   int64
	retired    metrics.Snapshot // counters of recycled (closed) machines
	violations []string         // from recycled (closed) machines, capped

	cache *memoCache
	// trace is the pool-wide event log (nil when tracing is off): shared by
	// the serving layer and every pooled machine, so a request's spans
	// assemble into one trace no matter which machine — or, after a
	// recycle, which machine generation — served it.
	trace *obs.TraceSink
}

// traceCapacity is how many trace spans the pool-wide log retains.
const traceCapacity = 1 << 17

// New builds and starts a server (its worker goroutines idle until jobs
// arrive). Close must be called to stop them.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		tenants: make(map[string]*tenant),
		jobs:    make(map[string]*Job),
		cache:   newMemoCache(opts.CacheEntries),
	}
	if opts.Machine.TraceRate > 0 {
		s.trace = obs.NewTraceSink(traceCapacity, opts.Machine.TraceRate)
	}
	s.cond = sync.NewCond(&s.mu)
	for b := range s.credits {
		s.credits[b] = bandWeight(uint8(b))
	}
	for i := 0; i < opts.Workers; i++ {
		w := &worker{id: i, m: s.newMachine(i)}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go s.workerLoop(w)
	}
	return s
}

func (s *Server) newMachine(id int) *dgr.Machine {
	o := s.opts.Machine
	o.Seed += int64(id)
	// The shared sink at rate 0: sampling is the server's admission-time
	// decision, carried in via EvalTraced.
	o.TraceRate, o.TraceSink = 0, s.trace
	return dgr.New(o)
}

// SetTenant configures a tenant's limits and scheduling class. Unknown
// tenants get Options.DefaultLimits on first contact.
func (s *Server) SetTenant(name string, lim TenantLimits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(name)
	wasBand := t.limits.Band
	t.limits = lim.withDefaults(s.opts)
	if t.inRing && t.limits.Band != wasBand {
		s.ringRemoveLocked(t, wasBand)
		s.ringAddLocked(t)
	}
}

func (s *Server) tenantLocked(name string) *tenant {
	name = tenantKey(name)
	t, ok := s.tenants[name]
	if !ok {
		t = &tenant{name: name, limits: TenantLimits{}.withDefaults(s.opts), stats: obs.TenantProm{Name: name}}
		s.tenants[name] = t
	}
	return t
}

// tenantKey is the name a tenant's state is kept under: the anonymous
// tenant's for "".
func tenantKey(name string) string {
	if name == "" {
		return "anonymous"
	}
	return name
}

// Submit admits one evaluation. It returns a structured *Error (as error)
// on a malformed tenant name or a new one past maxTenants (before any state
// is touched), parse failure or admission rejection; otherwise the returned
// job is queued — or, on a memo-cache hit, already done — and never blocks on
// machine availability. A hit is served at admission: it consumes no queue
// slot, no quota charge, and no machine time.
func (s *Server) Submit(req Request) (*Job, error) {
	if req.Tenant != "" && !tenantName.MatchString(req.Tenant) {
		return nil, &Error{Code: CodeBadRequest,
			Message: "tenant name must be 1-64 characters of [A-Za-z0-9._-]"}
	}
	digest, derr := lang.DigestString(req.Program)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, &Error{Code: CodeClosed, Message: "server is shutting down"}
	}
	if _, known := s.tenants[tenantKey(req.Tenant)]; !known && len(s.tenants) >= maxTenants {
		return nil, &Error{Code: CodeTenantLimit, Message: "server keeps no more tenants",
			Tenant: req.Tenant, Limit: maxTenants, Current: len(s.tenants)}
	}
	t := s.tenantLocked(req.Tenant)
	t.stats.Requests++
	if derr != nil {
		t.stats.Failed++
		return nil, &Error{Code: CodeParse, Message: derr.Error(), Tenant: t.name}
	}

	// Head-sampling decision: made once at admission, before the outcome
	// is known, so rejected and failed requests are as likely to carry a
	// trace as successful ones (and always, once the sink is forced).
	var trID uint64
	var rootSpan uint32
	if s.trace.Sample() {
		trID = s.trace.NewTrace()
		rootSpan = s.trace.NewSpan()
	}

	// Memo-cache fast path: a known normal form short-circuits admission.
	if res, ok := s.cacheGetLocked(digest, req.List); ok {
		t.stats.CacheHits++
		t.stats.Admitted++
		j := s.newJobLocked(t, req, digest)
		j.trace, j.rootSpan = trID, rootSpan
		j.cacheHit = true
		j.started = j.submitted
		if j.trace != 0 {
			s.trace.Record(obs.TraceSpan{Trace: j.trace, Span: s.trace.NewSpan(),
				Parent: j.rootSpan, Name: "memo", Cat: obs.CatServe, PE: obs.TIDEval,
				Start: obs.At(j.submitted), End: obs.Now(), Note: "hit"})
		}
		s.settleLocked(j, res, nil)
		return j, nil
	}

	// Admission control: global queue bound, then per-tenant quotas.
	if s.queued >= s.opts.QueueDepth {
		t.stats.RejectedQueue++
		return nil, &Error{
			Code: CodeQueueFull, Message: "admission queue is full",
			Tenant: t.name, Limit: s.opts.QueueDepth, Current: s.queued,
		}
	}
	if t.inflight >= t.limits.MaxInflight {
		t.stats.RejectedInflight++
		return nil, &Error{
			Code: CodeTenantInflight, Message: "tenant in-flight limit reached",
			Tenant: t.name, Limit: t.limits.MaxInflight, Current: t.inflight,
		}
	}
	cost := t.chargeCost()
	if t.charged+cost > t.limits.VertexQuota {
		t.stats.RejectedQuota++
		return nil, &Error{
			Code: CodeTenantQuota, Message: "tenant graph-vertex quota reached",
			Tenant: t.name, Limit: t.limits.VertexQuota, Current: t.charged,
		}
	}

	t.stats.Admitted++
	t.stats.CacheMisses++
	j := s.newJobLocked(t, req, digest)
	j.trace, j.rootSpan = trID, rootSpan
	j.cost = cost
	t.charged += cost
	t.queue = append(t.queue, j)
	s.queued++
	s.ringAddLocked(t)
	if j.trace != 0 {
		s.trace.Record(obs.TraceSpan{Trace: j.trace, Span: s.trace.NewSpan(),
			Parent: j.rootSpan, Name: "admission", Cat: obs.CatServe, PE: obs.TIDEval,
			Start: obs.At(j.submitted), End: obs.Now(),
			Note: fmt.Sprintf("tenant=%s cost=%d", t.name, cost)})
	}
	s.cond.Signal()
	return j, nil
}

// newJobLocked registers a fresh job and counts it against the tenant's
// in-flight slots.
func (s *Server) newJobLocked(t *tenant, req Request, digest string) *Job {
	s.nextID++
	j := &Job{
		s: s, id: fmt.Sprintf("j-%06d", s.nextID), tenant: t, req: req,
		digest: digest, status: StatusQueued, submitted: time.Now(),
		done: make(chan struct{}),
	}
	s.jobs[j.id] = j
	t.inflight++
	return j
}

// cacheGetLocked looks up the memo cache, refusing a scalar entry for a
// list request (and vice versa) — the two evaluation modes produce
// different normal forms for the same program text.
func (s *Server) cacheGetLocked(digest string, list bool) (*Result, bool) {
	res, ok := s.cache.Get(cacheKey(digest, list))
	return res, ok
}

func cacheKey(digest string, list bool) string {
	if list {
		return digest + "/list"
	}
	return digest
}

// Job returns the job with the given ID, if it is still tracked.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// ringAddLocked makes the tenant eligible for dispatch in its band.
func (s *Server) ringAddLocked(t *tenant) {
	if t.inRing || len(t.queue) == 0 {
		return
	}
	b := bandIndex(t.limits.Band)
	s.rings[b] = append(s.rings[b], t)
	t.inRing = true
}

func (s *Server) ringRemoveLocked(t *tenant, band uint8) {
	b := bandIndex(band)
	for i, rt := range s.rings[b] {
		if rt == t {
			s.rings[b] = append(s.rings[b][:i], s.rings[b][i+1:]...)
			if s.cursor[b] > i {
				s.cursor[b]--
			}
			break
		}
	}
	t.inRing = false
	t.deficit = 0
}

func bandIndex(band uint8) int {
	if band > 2 {
		return 2
	}
	return int(band)
}

// nextJobLocked implements the weighted round-robin dequeue: bands are
// visited highest-first while they hold credits (vital 4 : eager 2 :
// reserve 1, refilled when every non-empty band is out), and within a band
// tenants take turns, each granted its Weight in consecutive dequeues.
// One hot tenant can exhaust neither its band (the ring rotates) nor the
// lower bands (credits bound each band's share per refill round).
func (s *Server) nextJobLocked() *Job {
	for attempt := 0; attempt < 2; attempt++ {
		for b := 2; b >= 0; b-- {
			if len(s.rings[b]) == 0 || s.credits[b] <= 0 {
				continue
			}
			s.credits[b]--
			ring := s.rings[b]
			s.cursor[b] %= len(ring)
			t := ring[s.cursor[b]]
			if t.deficit <= 0 {
				t.deficit = t.limits.Weight
			}
			j := t.queue[0]
			t.queue[0] = nil
			t.queue = t.queue[1:]
			t.deficit--
			if len(t.queue) == 0 {
				s.ringRemoveLocked(t, t.limits.Band)
			} else if t.deficit <= 0 {
				s.cursor[b]++
			}
			s.queued--
			return j
		}
		// Credits exhausted for every band that has work: refill and retry.
		for b := range s.credits {
			s.credits[b] = bandWeight(uint8(b))
		}
	}
	return nil
}

func (s *Server) workerLoop(w *worker) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if j = s.nextJobLocked(); j != nil || s.closed {
				break
			}
			s.cond.Wait()
		}
		if j == nil { // closed and drained
			m := w.m
			w.m = nil
			s.retireMachineLocked(m)
			s.mu.Unlock()
			m.Close()
			return
		}
		j.status = StatusRunning
		j.started = time.Now()
		s.running++
		s.mu.Unlock()

		s.execute(w, j)
	}
}

// execute runs one job on the worker's machine. The digest may have been
// cached between admission and dispatch (two cold submissions of the same
// program), so the cache is consulted once more before reducing.
func (s *Server) execute(w *worker, j *Job) {
	if j.trace != 0 {
		// The queue-wait span covers admission→dispatch; CatQueue routes
		// it into the critical path's queue blame bucket.
		s.trace.Record(obs.TraceSpan{Trace: j.trace, Span: s.trace.NewSpan(),
			Parent: j.rootSpan, Name: "queue-wait", Cat: obs.CatQueue, PE: obs.TIDEval,
			Start: obs.At(j.submitted), End: obs.At(j.started),
			Note: fmt.Sprintf("worker=%d", w.id)})
	}
	probe := time.Now()
	res, ok := s.cache.Get(cacheKey(j.digest, j.req.List))
	if j.trace != 0 {
		note := "miss"
		if ok {
			note = "hit"
		}
		s.trace.Record(obs.TraceSpan{Trace: j.trace, Span: s.trace.NewSpan(),
			Parent: j.rootSpan, Name: "memo", Cat: obs.CatServe, PE: obs.TIDEval,
			Start: obs.At(probe), End: obs.Now(), Note: note})
	}
	if ok {
		s.finish(j, res, true, 0)
		return
	}
	m := w.m
	// Settle the quota charge against real free-list movement: footprint =
	// how far the sharded store's FreeCount dropped across the evaluation.
	// The previous request's garbage is reclaimed first, so one job's
	// leavings aren't billed to the next: no machine collects while it
	// waits for work.
	if m.FreeVertices() < s.opts.Machine.Capacity/4 {
		m.RunGC()
	}
	free0 := m.FreeVertices()

	var evalErr error
	if j.req.List {
		var vs []dgr.Value
		vs, evalErr = m.EvalListTraced(j.req.Program, j.trace, j.rootSpan)
		if evalErr == nil {
			res = listResult(vs)
		}
	} else {
		var v dgr.Value
		v, evalErr = m.EvalTraced(j.req.Program, j.trace, j.rootSpan)
		if evalErr == nil {
			res = valueResult(v)
		}
	}
	j.evalDone = time.Now()
	used := free0 - m.FreeVertices()
	if used < 0 {
		used = 0
	}

	if evalErr != nil {
		s.fail(j, evalError(j.tenant.name, evalErr), used)
		s.recycle(w)
		return
	}
	s.cache.Put(cacheKey(j.digest, j.req.List), res)
	s.finish(j, res, false, used)
}

// finish completes a dispatched job successfully.
func (s *Server) finish(j *Job, res *Result, hit bool, used int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := j.tenant
	j.cacheHit = hit
	if hit {
		t.stats.CacheHits++
		t.stats.CacheMisses-- // admission pre-counted a miss
	} else {
		t.observe(used)
	}
	s.settleLocked(j, res, nil)
}

// fail completes a dispatched job with a structured error.
func (s *Server) fail(j *Job, e *Error, used int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if used > 0 {
		j.tenant.observe(used)
	}
	s.settleLocked(j, nil, e)
}

// settleLocked ends j, done with res or failed with e. Every path that ends a
// job comes here: the memo hit at admission, finish, fail, and Close's jobs
// never dispatched. It releases the job's admission charges, observes its
// latency, closes its trace — a dispatched job's "settle" span (evaluation
// end → charges released), then the root "request" span every other span of
// the trace hangs off — and wakes its waiters.
func (s *Server) settleLocked(j *Job, res *Result, e *Error) {
	t := j.tenant
	dispatched := j.status == StatusRunning
	if dispatched {
		s.running--
	}
	j.result, j.err = res, e
	j.finished = time.Now()
	if e != nil {
		j.status = StatusFailed
		t.stats.Failed++
	} else {
		j.status = StatusDone
		t.stats.Completed++
	}
	t.inflight--
	t.charged -= j.cost
	t.latency.Observe(j.finished.Sub(j.submitted).Microseconds())
	if j.trace != 0 {
		if dispatched {
			settleStart := j.evalDone
			if settleStart.IsZero() {
				settleStart = j.finished
			}
			s.trace.Record(obs.TraceSpan{Trace: j.trace, Span: s.trace.NewSpan(),
				Parent: j.rootSpan, Name: "settle", Cat: obs.CatServe, PE: obs.TIDEval,
				Start: obs.At(settleStart), End: obs.At(j.finished)})
		}
		note := fmt.Sprintf("tenant=%s job=%s status=%s", t.name, j.id, j.status)
		if e != nil {
			note += " code=" + e.Code
		}
		s.trace.Record(obs.TraceSpan{Trace: j.trace, Span: j.rootSpan,
			Name: "request", Cat: obs.CatServe, PE: obs.TIDEval,
			Start: obs.At(j.submitted), End: obs.At(j.finished), Note: note})
	}
	t.observeTrace(j)
	close(j.done)
	s.retireLocked(j)
}

// retireLocked bounds the finished-job history.
func (s *Server) retireLocked(j *Job) {
	s.history = append(s.history, j.id)
	for len(s.history) > jobHistory {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

// recycle replaces a worker's machine after a failed evaluation: a
// deadlocked, stuck, or budget-exhausted run can leave deadlock records,
// runtime errors, or (in parallel mode) still-live tasks behind, and a
// fresh machine is cheaper than proving the old one clean. The old one's
// counters and check violations are harvested in the same critical section
// as the swap, so they stay reportable and no scrape sees the totals dip.
func (s *Server) recycle(w *worker) {
	fresh := s.newMachine(w.id)
	s.mu.Lock()
	old := w.m
	w.m = fresh
	s.recycles++
	s.retireMachineLocked(old)
	s.mu.Unlock()
	old.Close()
}

// retireMachineLocked keeps what a machine leaving the pool would take with
// it: its counters, folded into the retired sum so the pool's totals never
// run backwards, and its check violations (capped).
func (s *Server) retireMachineLocked(m *dgr.Machine) {
	if m == nil {
		return
	}
	s.retired = s.retired.Add(m.Stats())
	for _, v := range m.CheckViolations() {
		if len(s.violations) >= 64 {
			return
		}
		s.violations = append(s.violations, v)
	}
}

// machineTotalsLocked sums the pool's counters: every retired machine's plus
// those of the machines the workers hold now.
func (s *Server) machineTotalsLocked() metrics.Snapshot {
	sum := s.retired
	for _, w := range s.workers {
		if w.m != nil {
			sum = sum.Add(w.m.Stats())
		}
	}
	return sum
}

// evalError maps machine errors onto structured codes.
func evalError(tenant string, err error) *Error {
	code := CodeStuck
	switch {
	case errors.Is(err, dgr.ErrDeadlock):
		code = CodeDeadlock
	case errors.Is(err, dgr.ErrBudget):
		code = CodeBudget
	case errors.Is(err, dgr.ErrClosed):
		code = CodeClosed
	}
	return &Error{Code: code, Message: err.Error(), Tenant: tenant}
}

func valueResult(v dgr.Value) *Result {
	return &Result{Kind: v.Kind.String(), Rendered: v.String()}
}

func listResult(vs []dgr.Value) *Result {
	elems := make([]string, len(vs))
	for i, v := range vs {
		elems[i] = v.String()
	}
	return &Result{
		Kind:     "list",
		Rendered: "[" + strings.Join(elems, ", ") + "]",
		Elems:    elems,
	}
}

// Close stops the workers (after their current jobs), fails everything
// still queued with CodeClosed, and closes the pooled machines. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for j := s.nextJobLocked(); j != nil; j = s.nextJobLocked() {
		s.settleLocked(j, nil, &Error{Code: CodeClosed, Message: "server closed before dispatch", Tenant: j.tenant.name})
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// CacheStats summarizes the memo cache; hit/miss totals are per request
// (summed across tenants), not per internal lookup.
func (s *Server) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheStatsLocked()
}

func (s *Server) cacheStatsLocked() CacheStats {
	cs := s.cache.Stats()
	for _, t := range s.tenants {
		cs.Hits += t.stats.CacheHits
		cs.Misses += t.stats.CacheMisses
	}
	return cs
}

// Violations returns every invariant violation observed across the pool —
// live machines and recycled ones — capped at 64 entries.
func (s *Server) Violations() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]string(nil), s.violations...)
	for _, w := range s.workers {
		if w.m != nil {
			out = append(out, w.m.CheckViolations()...)
		}
	}
	return out
}

// TenantProms renders every tenant's serving metrics for the Prometheus
// exposition, sorted by name.
func (s *Server) TenantProms() []obs.TenantProm {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]obs.TenantProm, 0, len(names))
	for _, name := range names {
		t := s.tenants[name]
		p, lat := t.stats, t.latency.Snapshot()
		p.Inflight, p.ChargedVertices = int64(t.inflight), int64(t.charged)
		p.VertexQuota = int64(t.limits.VertexQuota)
		p.LatencyP50Us, p.LatencyP95Us = lat.Quantile(0.50), lat.Quantile(0.95)
		if t.slowestTrace != 0 {
			p.SlowestTraceID = fmt.Sprintf("%x", t.slowestTrace)
		}
		out = append(out, p)
	}
	return out
}

// TraceSink returns the pool-wide lineage sink, or nil when tracing is off
// (Options.TraceRate 0).
func (s *Server) TraceSink() *obs.TraceSink { return s.trace }

// WriteTracesJSON writes every retained lineage trace — assembled into its
// spawn DAG, with critical-path analysis and per-category blame — as an
// obs.TraceDoc. It errors unless Options.TraceRate is set.
func (s *Server) WriteTracesJSON(w io.Writer) error {
	if s.trace == nil {
		return errors.New("serve: lineage tracing disabled (set Options.TraceRate)")
	}
	return obs.WriteTracesJSON(w, s.trace)
}

// PoolStats is a point-in-time summary of the server.
type PoolStats struct {
	Workers    int              `json:"workers"`
	PEs        int              `json:"pes"`
	Parallel   bool             `json:"parallel"`
	Queued     int              `json:"queued"`
	Running    int              `json:"running"`
	QueueDepth int              `json:"queue_depth"`
	Tenants    int              `json:"tenants"`
	Jobs       int              `json:"jobs_tracked"`
	Recycles   int64            `json:"machine_recycles"`
	Violations int              `json:"check_violations"`
	Cache      CacheStats       `json:"cache"`
	Machine    metrics.Snapshot `json:"machine_totals"`
}

// Stats snapshots the server, summing the counters of every machine the
// pool has held.
func (s *Server) Stats() PoolStats {
	viol := len(s.Violations())
	s.mu.Lock()
	defer s.mu.Unlock()
	return PoolStats{
		Workers: len(s.workers), PEs: s.opts.Machine.PEs, Parallel: s.opts.Machine.Parallel,
		Queued: s.queued, Running: s.running, QueueDepth: s.opts.QueueDepth,
		Tenants: len(s.tenants), Jobs: len(s.jobs), Recycles: s.recycles,
		Violations: viol, Cache: s.cacheStatsLocked(),
		Machine: s.machineTotalsLocked(),
	}
}
