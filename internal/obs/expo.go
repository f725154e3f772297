package obs

import (
	"fmt"
	"io"

	"dgr/internal/metrics"
)

// WriteSpansJSONL writes the handle's retained intervals as
// chrome://tracing-compatible JSON Lines: one complete-duration ("ph":"X")
// event per line, timestamps and durations in microseconds on the clock.
// Load the lines (wrapped in a JSON array) in chrome://tracing or Perfetto;
// PEs appear as tids 0..n-1, the collector as tid -1, the fabric as tid -2.
func (o *Obs) WriteSpansJSONL(w io.Writer) error {
	for _, s := range o.Spans() {
		cat := s.Cat
		if cat == CatGC {
			cat = CatCollector // one lane for the phases and the cycle around them
		}
		_, err := fmt.Fprintf(w,
			`{"name":%q,"cat":%q,"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"n":%d}}`+"\n",
			s.Name, cat, s.PE, float64(s.Start)/1e3, float64(s.End-s.Start)/1e3, s.N)
		if err != nil {
			return err
		}
	}
	return nil
}

// PromData is everything the Prometheus exposition renders: the shared
// counters plus live machine gauges. Slices indexed by PE; nil slices are
// simply omitted from the output.
type PromData struct {
	Stats       metrics.Snapshot
	PEs         int
	Heap, Free  int
	FreePerPart []int
	Inflight    int64
	InTransit   int64
	Deadlocked  int
	PoolBands   [][Bands]int // per-PE queue depth per band
	Utils       []float64    // per-PE utilization (latest sample window)
	ExecsPerPE  []int64      // per-PE cumulative executions

	// Tenants, when non-empty, adds the serving layer's per-tenant series
	// (tenant-labeled counters and gauges) to the exposition.
	Tenants []TenantProm
}

// TenantProm is one tenant's serving-layer metric row. The serving layer
// (internal/serve) fills these from its admission and cache accounting;
// latency quantiles come from the per-tenant log2 histogram.
type TenantProm struct {
	Name      string
	Requests  int64 // submissions (admitted + rejected)
	Admitted  int64
	Completed int64
	Failed    int64
	// Rejections by structured cause.
	RejectedQueue    int64
	RejectedInflight int64
	RejectedQuota    int64
	// Memo-cache outcomes, one per admitted request.
	CacheHits   int64
	CacheMisses int64
	// Live admission state.
	Inflight        int64
	ChargedVertices int64
	VertexQuota     int64
	// Completed-request latency quantiles, microseconds.
	LatencyP50Us int64
	LatencyP95Us int64
	// Lineage exemplar: the slowest traced request so far ("" when the
	// tenant has no traced requests), linking the latency series to a
	// concrete trace in /debug/traces.json.
	SlowestTraceID string
	SlowestUs      int64
}

// writeTenants renders the tenant-labeled serving series. Counters first,
// then gauges, each series listing every tenant under one header.
func writeTenants(p func(format string, args ...any), ts []TenantProm) {
	counter := func(name, help string, get func(TenantProm) int64) {
		p("# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, t := range ts {
			p("%s{tenant=%q} %d\n", name, t.Name, get(t))
		}
	}
	gauge := func(name, help string, get func(TenantProm) int64) {
		p("# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, t := range ts {
			p("%s{tenant=%q} %d\n", name, t.Name, get(t))
		}
	}
	counter("dgr_tenant_requests_total", "Evaluation submissions per tenant.",
		func(t TenantProm) int64 { return t.Requests })
	counter("dgr_tenant_admitted_total", "Submissions admitted past quota checks.",
		func(t TenantProm) int64 { return t.Admitted })
	counter("dgr_tenant_completed_total", "Evaluations finished successfully.",
		func(t TenantProm) int64 { return t.Completed })
	counter("dgr_tenant_failed_total", "Evaluations finished with an error.",
		func(t TenantProm) int64 { return t.Failed })
	counter("dgr_tenant_rejected_queue_total", "Rejections: admission queue full.",
		func(t TenantProm) int64 { return t.RejectedQueue })
	counter("dgr_tenant_rejected_inflight_total", "Rejections: tenant in-flight limit.",
		func(t TenantProm) int64 { return t.RejectedInflight })
	counter("dgr_tenant_rejected_quota_total", "Rejections: tenant vertex quota.",
		func(t TenantProm) int64 { return t.RejectedQuota })
	counter("dgr_tenant_cache_hits_total", "Memo-cache hits (reduction skipped).",
		func(t TenantProm) int64 { return t.CacheHits })
	counter("dgr_tenant_cache_misses_total", "Memo-cache misses (reduction ran).",
		func(t TenantProm) int64 { return t.CacheMisses })
	gauge("dgr_tenant_inflight", "Queued plus running requests.",
		func(t TenantProm) int64 { return t.Inflight })
	gauge("dgr_tenant_charged_vertices", "Graph vertices charged against the quota.",
		func(t TenantProm) int64 { return t.ChargedVertices })
	gauge("dgr_tenant_vertex_quota", "Configured graph-vertex quota.",
		func(t TenantProm) int64 { return t.VertexQuota })
	gauge("dgr_tenant_latency_p50_us", "Median request latency, microseconds.",
		func(t TenantProm) int64 { return t.LatencyP50Us })
	gauge("dgr_tenant_latency_p95_us", "95th-percentile request latency, microseconds.",
		func(t TenantProm) int64 { return t.LatencyP95Us })
	// Exemplar series: value is the slowest traced request's latency, the
	// trace label points into /debug/traces.json.
	emitted := false
	for _, t := range ts {
		if t.SlowestTraceID == "" {
			continue
		}
		if !emitted {
			p("# HELP dgr_tenant_slowest_trace_us Latency of the tenant's slowest traced request; the trace label is its lineage trace ID.\n")
			p("# TYPE dgr_tenant_slowest_trace_us gauge\n")
			emitted = true
		}
		p("dgr_tenant_slowest_trace_us{tenant=%q,trace=%q} %d\n", t.Name, t.SlowestTraceID, t.SlowestUs)
	}
}

// WritePrometheus renders d in the Prometheus text exposition format
// (version 0.0.4). Counter totals come from the metrics snapshot; gauges
// from the live machine; the fabric latency histogram is rendered with its
// native log2 bucket bounds.
func WritePrometheus(w io.Writer, d PromData) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	counter := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	s := d.Stats
	counter("dgr_tasks_executed_total", "Task executions across all PEs.", s.TasksExecuted)
	counter("dgr_reduction_tasks_total", "Demand/result/reduce executions.", s.ReductionTasks)
	counter("dgr_mark_tasks_total", "Mark task executions.", s.MarkTasks)
	counter("dgr_return_tasks_total", "Return task executions.", s.ReturnTasks)
	counter("dgr_remote_messages_total", "Tasks spawned across partitions.", s.RemoteMessages)
	counter("dgr_local_messages_total", "Tasks spawned within a partition.", s.LocalMessages)
	counter("dgr_rewrites_total", "Combinator/primitive graph rewrites.", s.Rewrites)
	counter("dgr_allocations_total", "Vertices taken from the free set.", s.Allocations)
	counter("dgr_reclaimed_total", "Vertices returned to the free set.", s.Reclaimed)
	counter("dgr_gc_cycles_total", "Completed mark/restructure cycles.", s.Cycles)
	counter("dgr_mt_runs_total", "Cycles that included an M_T phase.", s.MTRuns)
	counter("dgr_expunged_total", "Irrelevant tasks deleted.", s.Expunged)
	counter("dgr_reprioritized_total", "Tasks whose band changed in restructuring.", s.Reprioritized)
	counter("dgr_deadlocked_found_total", "Vertices reported deadlocked.", s.DeadlockedFound)
	counter("dgr_deadlock_retracted_total", "Candidate deadlock verdicts retracted before confirmation.", s.DeadlockRetracted)
	counter("dgr_coop_marks_total", "Marks spawned by cooperating mutator primitives.", s.CoopMarks)
	counter("dgr_check_runs_total", "Sample points where the invariant checker ran.", s.CheckRuns)
	counter("dgr_check_skipped_total", "Sample points the checker skipped as unstable.", s.CheckSkipped)
	counter("dgr_check_violations_total", "Invariant violations reported.", s.CheckViolations)
	counter("dgr_steals_total", "Successful cross-PE steal operations (batches taken).", s.Steals)
	counter("dgr_stolen_tasks_total", "Tasks moved between PE pools by stealing.", s.StolenTasks)
	counter("dgr_idle_polls_total", "Times a PE found no work in its own pool or any peer's.", s.IdlePolls)

	if s.FabricSent > 0 {
		counter("dgr_fabric_sent_total", "Tasks handed to the fabric.", s.FabricSent)
		counter("dgr_fabric_delivered_total", "Tasks delivered by the fabric.", s.FabricDelivered)
		counter("dgr_fabric_batches_total", "Batches flushed onto links.", s.FabricBatches)
		counter("dgr_fabric_dropped_total", "Batch transmissions lost.", s.FabricDropped)
		counter("dgr_fabric_retries_total", "Batch retransmissions.", s.FabricRetries)
		counter("dgr_fabric_duplicates_total", "Duplicate deliveries suppressed.", s.FabricDuplicates)
		counter("dgr_fabric_acks_dropped_total", "Acknowledgements lost to fault injection.", s.FabricAcksDropped)
		counter("dgr_fabric_expunged_total", "In-transit tasks deleted by restructuring.", s.FabricExpunged)
		h := s.FabricLatency
		p("# HELP dgr_fabric_latency_us Enqueue-to-delivery latency, microseconds.\n")
		p("# TYPE dgr_fabric_latency_us histogram\n")
		var cum int64
		for b, c := range h {
			cum += c
			p("dgr_fabric_latency_us_bucket{le=\"%d\"} %d\n", int64(1)<<b, cum)
		}
		p("dgr_fabric_latency_us_bucket{le=\"+Inf\"} %d\n", cum)
		p("dgr_fabric_latency_us_count %d\n", cum)
	}

	if len(d.Tenants) > 0 {
		writeTenants(p, d.Tenants)
	}

	gauge("dgr_pes", "Processing elements.", int64(d.PEs))
	gauge("dgr_heap_vertices", "Vertices in the arena (|V|).", int64(d.Heap))
	gauge("dgr_free_vertices", "Free vertices (|F|).", int64(d.Free))
	gauge("dgr_inflight_tasks", "Queued plus executing tasks.", d.Inflight)
	gauge("dgr_in_transit_tasks", "Tasks inside the inter-PE fabric.", d.InTransit)
	gauge("dgr_deadlocked_vertices", "Vertices identified as deadlocked.", int64(d.Deadlocked))

	if len(d.FreePerPart) > 0 {
		p("# HELP dgr_partition_free_vertices Free vertices per graph partition.\n")
		p("# TYPE dgr_partition_free_vertices gauge\n")
		for part, n := range d.FreePerPart {
			p("dgr_partition_free_vertices{part=\"%d\"} %d\n", part, n)
		}
	}
	if len(d.PoolBands) > 0 {
		p("# HELP dgr_pe_queue_depth Queued tasks per PE and priority band.\n")
		p("# TYPE dgr_pe_queue_depth gauge\n")
		for pe, bands := range d.PoolBands {
			for b, n := range bands {
				p("dgr_pe_queue_depth{pe=\"%d\",band=%q} %d\n", pe, BandNames[b], n)
			}
		}
	}
	if len(d.Utils) > 0 {
		p("# HELP dgr_pe_utilization Fraction of the last sample interval spent executing.\n")
		p("# TYPE dgr_pe_utilization gauge\n")
		for pe, u := range d.Utils {
			p("dgr_pe_utilization{pe=\"%d\"} %.6f\n", pe, u)
		}
	}
	if len(d.ExecsPerPE) > 0 {
		p("# HELP dgr_pe_tasks_executed_total Task executions per PE.\n")
		p("# TYPE dgr_pe_tasks_executed_total counter\n")
		for pe, n := range d.ExecsPerPE {
			p("dgr_pe_tasks_executed_total{pe=\"%d\"} %d\n", pe, n)
		}
	}
	return err
}
