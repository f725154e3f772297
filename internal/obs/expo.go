package obs

import (
	"fmt"
	"io"
	"reflect"
	"strings"

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

// Gauges are the live-machine gauges, each declared once: the field is what
// Machine.Gauges reads, its tags the key in snapshot.json and the series and
// help text of the exposition (the tags metrics.Snapshot carries).
type Gauges struct {
	PEs        int   `json:"pes" prom:"dgr_pes" help:"Processing elements."`
	Heap       int   `json:"heap" prom:"dgr_heap_vertices" help:"Vertices in the arena (|V|)."`
	Free       int   `json:"free" prom:"dgr_free_vertices" help:"Free vertices (|F|)."`
	Inflight   int64 `json:"inflight" prom:"dgr_inflight_tasks" help:"Queued plus executing tasks."`
	InTransit  int64 `json:"in_transit" prom:"dgr_in_transit_tasks" help:"Tasks inside the inter-PE fabric."`
	Deadlocked int   `json:"deadlocked" prom:"dgr_deadlocked_vertices" help:"Vertices identified as deadlocked."`
}

var gaugeSeries = metrics.SeriesOf(reflect.TypeOf(Gauges{}))

// Add returns the gauge-wise sum: a machine pool read as one machine.
func (g Gauges) Add(o Gauges) Gauges {
	gv, ov := reflect.ValueOf(&g).Elem(), reflect.ValueOf(o)
	for _, s := range gaugeSeries {
		f := gv.Field(s.Index)
		f.SetInt(f.Int() + ov.Field(s.Index).Int())
	}
	return g
}

// PromData is everything the Prometheus exposition renders: the shared
// counters plus live machine gauges. Slices indexed by PE; nil slices are
// simply omitted from the output. The JSON keys are snapshot.json's.
type PromData struct {
	Stats metrics.Snapshot `json:"stats"`
	Gauges
	FreePerPart []int        `json:"free_per_part"`
	PoolBands   [][Bands]int `json:"pools"`          // per-PE queue depth per band
	BusyNs      []int64      `json:"busy_ns_per_pe"` // per-PE cumulative nanoseconds executing
	ExecsPerPE  []int64      `json:"execs_per_pe"`   // per-PE cumulative executions

	// Tenants, when non-empty, adds the serving layer's per-tenant series
	// (tenant-labeled counters and gauges) to the exposition.
	Tenants []TenantProm `json:"-"`
}

// TenantProm is one tenant's statistics: the record the serving layer
// (internal/serve) counts in, and, through the same tags metrics.Snapshot
// carries, the tenant-labelled series of the exposition. The serving layer
// fills the fields from Inflight down when it reports.
type TenantProm struct {
	Name      string
	Requests  int64 `prom:"dgr_tenant_requests_total" help:"Evaluation submissions per tenant."`
	Admitted  int64 `prom:"dgr_tenant_admitted_total" help:"Submissions admitted past quota checks."`
	Completed int64 `prom:"dgr_tenant_completed_total" help:"Evaluations finished successfully."`
	Failed    int64 `prom:"dgr_tenant_failed_total" help:"Evaluations finished with an error."`
	// Rejections by structured cause.
	RejectedQueue    int64 `prom:"dgr_tenant_rejected_queue_total" help:"Rejections: admission queue full."`
	RejectedInflight int64 `prom:"dgr_tenant_rejected_inflight_total" help:"Rejections: tenant in-flight limit."`
	RejectedQuota    int64 `prom:"dgr_tenant_rejected_quota_total" help:"Rejections: tenant vertex quota."`
	// Memo-cache outcomes, one per admitted request.
	CacheHits   int64 `prom:"dgr_tenant_cache_hits_total" help:"Memo-cache hits (reduction skipped)."`
	CacheMisses int64 `prom:"dgr_tenant_cache_misses_total" help:"Memo-cache misses (reduction ran)."`
	// Live admission state.
	Inflight        int64 `prom:"dgr_tenant_inflight" help:"Queued plus running requests."`
	ChargedVertices int64 `prom:"dgr_tenant_charged_vertices" help:"Graph vertices charged against the quota."`
	VertexQuota     int64 `prom:"dgr_tenant_vertex_quota" help:"Configured graph-vertex quota."`
	// Completed-request latency quantiles, from the tenant's log2 histogram.
	LatencyP50Us int64 `prom:"dgr_tenant_latency_p50_us" help:"Median request latency, microseconds."`
	LatencyP95Us int64 `prom:"dgr_tenant_latency_p95_us" help:"95th-percentile request latency, microseconds."`
	// Lineage exemplar: the slowest traced request so far ("" when the
	// tenant has no traced requests), linking the latency series to a
	// concrete trace in /debug/traces.json.
	SlowestTraceID string
	SlowestUs      int64
}

var tenantSeries = metrics.SeriesOf(reflect.TypeOf(TenantProm{}))

// labelEscaper escapes a label value; these three are the only escapes the
// text format defines (Go's %q knows others, which fail a scrape).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders d in the Prometheus text exposition format
// (version 0.0.4). Counter totals are a walk over the metrics snapshot's
// declared counters, tenant series a walk over TenantProm's tagged fields,
// the live-machine gauges a walk over Gauges'; the fabric latency histogram is
// rendered with its native log2 bucket bounds.
func WritePrometheus(w io.Writer, d PromData) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	header := func(s metrics.Series) {
		p("# HELP %s %s\n# TYPE %s %s\n", s.Name, s.Help, s.Name, s.Kind())
	}

	// The walk's two exceptions: Fabric* series and the latency histogram
	// appear only once a fabric has carried traffic.
	s, fabric := reflect.ValueOf(d.Stats), d.Stats.FabricSent > 0
	for _, c := range metrics.CounterSeries() {
		if fabric || !strings.HasPrefix(c.Field, "Fabric") {
			header(c)
			p("%s %d\n", c.Name, s.Field(c.Index).Int())
		}
	}
	if fabric {
		p("# HELP dgr_fabric_latency_us Enqueue-to-delivery latency, microseconds.\n")
		p("# TYPE dgr_fabric_latency_us histogram\n")
		var cum int64
		for b, c := range d.Stats.FabricLatency {
			cum += c
			p("dgr_fabric_latency_us_bucket{le=\"%d\"} %d\n", int64(1)<<b, cum)
		}
		p("dgr_fabric_latency_us_bucket{le=\"+Inf\"} %d\n", cum)
		p("dgr_fabric_latency_us_count %d\n", cum)
	}

	// Tenant-labelled serving series, each listing every tenant under one
	// header, then the exemplar: its value is the slowest traced request's
	// latency, its trace label points into /debug/traces.json.
	if tenants := reflect.ValueOf(d.Tenants); len(d.Tenants) > 0 {
		for _, f := range tenantSeries {
			header(f)
			for i, t := range d.Tenants {
				p("%s{tenant=\"%s\"} %d\n", f.Name, labelEscaper.Replace(t.Name), tenants.Index(i).Field(f.Index).Int())
			}
		}
	}
	emitted := false
	for _, t := range d.Tenants {
		if t.SlowestTraceID == "" {
			continue
		}
		if !emitted {
			p("# HELP dgr_tenant_slowest_trace_us Latency of the tenant's slowest traced request; the trace label is its lineage trace ID.\n")
			p("# TYPE dgr_tenant_slowest_trace_us gauge\n")
			emitted = true
		}
		p("dgr_tenant_slowest_trace_us{tenant=\"%s\",trace=\"%s\"} %d\n", labelEscaper.Replace(t.Name), t.SlowestTraceID, t.SlowestUs)
	}

	g := reflect.ValueOf(d.Gauges)
	for _, f := range gaugeSeries {
		header(f)
		p("%s %d\n", f.Name, g.Field(f.Index).Int())
	}

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
	if len(d.BusyNs) > 0 {
		p("# HELP dgr_pe_busy_seconds_total Seconds each PE spent executing tasks.\n")
		p("# TYPE dgr_pe_busy_seconds_total counter\n")
		for pe, ns := range d.BusyNs {
			p("dgr_pe_busy_seconds_total{pe=\"%d\"} %.9f\n", pe, float64(ns)/1e9)
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
