// Package metrics collects the counters the experiment harness reports:
// task executions, message traffic between partitions, marking work, and
// reclamation results.
//
// A counter is declared once, as two lines of this file: an atomic field of
// Counters, which the layers increment, and the field of the same name and
// position in Snapshot, whose tags give the Prometheus series it is exposed
// as. Snapshot, Add, Sub and the /metrics exposition (internal/obs) are walks
// over that declaration; none of them names a counter.
package metrics

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync/atomic"
)

// Counters aggregates run statistics. All fields are safe for concurrent
// update. The zero value is ready to use.
type Counters struct {
	TasksExecuted     atomic.Int64 // all task executions
	ReductionTasks    atomic.Int64 // demand/result/reduce executions
	InlineSteps       atomic.Int64 // reduction steps run in place, in the task that reached their vertex
	MarkTasks         atomic.Int64 // marks executed as tasks (cut arcs, continuations)
	ReturnTasks       atomic.Int64 // returns executed as tasks
	MarkVisits        atomic.Int64 // mark bodies run, as a task or inline in a wave
	RemoteMessages    atomic.Int64 // tasks spawned across partitions
	LocalMessages     atomic.Int64 // tasks spawned within a partition
	Rewrites          atomic.Int64 // combinator/primitive graph rewrites
	Allocations       atomic.Int64 // vertices taken from F
	Reclaimed         atomic.Int64 // vertices returned to F by restructuring
	Cycles            atomic.Int64 // completed mark/restructure cycles
	MTRuns            atomic.Int64 // cycles that included an M_T phase
	Expunged          atomic.Int64 // irrelevant tasks deleted
	Reprioritized     atomic.Int64 // tasks whose band changed in restructuring
	DeadlockedFound   atomic.Int64 // vertices with a confirmed deadlock verdict
	DeadlockRetracted atomic.Int64 // candidate verdicts retracted before confirmation
	CoopMarks         atomic.Int64 // marks spawned by cooperating mutator primitives

	// Work-stealing activity (zero unless sched.Config.Steal is on).
	Steals      atomic.Int64 // successful steal operations (batches taken)
	StolenTasks atomic.Int64 // tasks moved between PE pools by stealing
	IdlePolls   atomic.Int64 // times a PE found no work (own pool and peers empty)

	// Invariant checker activity (zero unless internal/check is wired in).
	CheckRuns       atomic.Int64 // sample points where a check actually ran
	CheckViolations atomic.Int64 // invariant violations reported
	CheckSkipped    atomic.Int64 // sample points skipped as unsafe (unstable state)

	// Inter-PE fabric traffic (zero unless a fabric is wired in).
	FabricSent        atomic.Int64 // tasks handed to the fabric for remote delivery
	FabricDelivered   atomic.Int64 // tasks delivered into destination pools
	FabricBatches     atomic.Int64 // batches flushed onto links
	FabricDropped     atomic.Int64 // batch transmissions lost to fault injection
	FabricRetries     atomic.Int64 // batch retransmissions after loss
	FabricDuplicates  atomic.Int64 // duplicate deliveries suppressed by dedup
	FabricAcksDropped atomic.Int64 // acknowledgements lost to fault injection
	FabricExpunged    atomic.Int64 // in-transit tasks deleted by restructuring
	FabricLatency     Histogram    // enqueue→delivery latency in µs
}

// Snapshot is a point-in-time copy of the counters: the same names in the
// same order as Counters, each tagged with its series name and help line.
type Snapshot struct {
	TasksExecuted     int64 `prom:"dgr_tasks_executed_total" help:"Task executions across all PEs."`
	ReductionTasks    int64 `prom:"dgr_reduction_tasks_total" help:"Demand/result/reduce executions."`
	InlineSteps       int64 `prom:"dgr_inline_steps_total" help:"Reduction steps run in place, inside the task that reached their vertex, where a reduce task would have run each."`
	MarkTasks         int64 `prom:"dgr_mark_tasks_total" help:"Marks executed as tasks: roots, arcs that cross a partition, spills past the wave budget."`
	ReturnTasks       int64 `prom:"dgr_return_tasks_total" help:"Returns executed as tasks."`
	MarkVisits        int64 `prom:"dgr_mark_visits_total" help:"Mark bodies run, as a task or inline in a partition-local wave."`
	RemoteMessages    int64 `prom:"dgr_remote_messages_total" help:"Tasks spawned across partitions."`
	LocalMessages     int64 `prom:"dgr_local_messages_total" help:"Tasks spawned within a partition."`
	Rewrites          int64 `prom:"dgr_rewrites_total" help:"Combinator/primitive graph rewrites."`
	Allocations       int64 `prom:"dgr_allocations_total" help:"Vertices taken from the free set."`
	Reclaimed         int64 `prom:"dgr_reclaimed_total" help:"Vertices returned to the free set."`
	Cycles            int64 `prom:"dgr_gc_cycles_total" help:"Completed mark/restructure cycles."`
	MTRuns            int64 `prom:"dgr_mt_runs_total" help:"Cycles that included an M_T phase."`
	Expunged          int64 `prom:"dgr_expunged_total" help:"Irrelevant tasks deleted."`
	Reprioritized     int64 `prom:"dgr_reprioritized_total" help:"Tasks whose band changed in restructuring."`
	DeadlockedFound   int64 `prom:"dgr_deadlocked_found_total" help:"Vertices reported deadlocked."`
	DeadlockRetracted int64 `prom:"dgr_deadlock_retracted_total" help:"Candidate deadlock verdicts retracted before confirmation."`
	CoopMarks         int64 `prom:"dgr_coop_marks_total" help:"Marks spawned by cooperating mutator primitives."`

	Steals      int64 `prom:"dgr_steals_total" help:"Successful cross-PE steal operations (batches taken)."`
	StolenTasks int64 `prom:"dgr_stolen_tasks_total" help:"Tasks moved between PE pools by stealing."`
	IdlePolls   int64 `prom:"dgr_idle_polls_total" help:"Times a PE found no work in its own pool or any peer's."`

	CheckRuns       int64 `prom:"dgr_check_runs_total" help:"Sample points where the invariant checker ran."`
	CheckViolations int64 `prom:"dgr_check_violations_total" help:"Invariant violations reported."`
	CheckSkipped    int64 `prom:"dgr_check_skipped_total" help:"Sample points the checker skipped as unstable."`

	FabricSent        int64 `prom:"dgr_fabric_sent_total" help:"Tasks handed to the fabric."`
	FabricDelivered   int64 `prom:"dgr_fabric_delivered_total" help:"Tasks delivered by the fabric."`
	FabricBatches     int64 `prom:"dgr_fabric_batches_total" help:"Batches flushed onto links."`
	FabricDropped     int64 `prom:"dgr_fabric_dropped_total" help:"Batch transmissions lost."`
	FabricRetries     int64 `prom:"dgr_fabric_retries_total" help:"Batch retransmissions."`
	FabricDuplicates  int64 `prom:"dgr_fabric_duplicates_total" help:"Duplicate deliveries suppressed."`
	FabricAcksDropped int64 `prom:"dgr_fabric_acks_dropped_total" help:"Acknowledgements lost to fault injection."`
	FabricExpunged    int64 `prom:"dgr_fabric_expunged_total" help:"In-transit tasks deleted by restructuring."`
	FabricLatency     HistSnapshot
}

// Series is one exposed statistic of a struct: an int64 field, the
// Prometheus series it is printed as (its prom tag) and that series' help
// line (its help tag).
type Series struct {
	Field string // Go field name
	Name  string
	Help  string
	Index int // of the field in its struct
}

// Kind is the series' exposition type, read off its name: cumulative series
// end in _total by Prometheus convention, everything else is a gauge.
func (s Series) Kind() string {
	if strings.HasSuffix(s.Name, "_total") {
		return "counter"
	}
	return "gauge"
}

// SeriesOf lists struct type t's prom-tagged fields in declaration order.
func SeriesOf(t reflect.Type) []Series {
	var out []Series
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if name := f.Tag.Get("prom"); name != "" {
			out = append(out, Series{Field: f.Name, Name: name, Help: f.Tag.Get("help"), Index: i})
		}
	}
	return out
}

// declared is the one list of counters, resolved from Snapshot's tags at
// start-up. An entry's Index is the counter's field in Snapshot and in
// Counters alike (TestCountersDeclaredOnce holds the two structs in step).
var declared = SeriesOf(reflect.TypeOf(Snapshot{}))

// CounterSeries returns the declared counters, Index into Snapshot.
func CounterSeries() []Series { return declared }

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	cv, sv := reflect.ValueOf(c).Elem(), reflect.ValueOf(&s).Elem()
	for _, d := range declared {
		sv.Field(d.Index).SetInt(cv.Field(d.Index).Addr().Interface().(*atomic.Int64).Load())
	}
	s.FabricLatency = c.FabricLatency.Snapshot()
	return s
}

// accumulate adds sign·o to s, counter by counter.
func (s *Snapshot) accumulate(o *Snapshot, sign int64) {
	sv, ov := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for _, d := range declared {
		f := sv.Field(d.Index)
		f.SetInt(f.Int() + sign*ov.Field(d.Index).Int())
	}
}

// Add returns the field-wise sum of two snapshots — the aggregation the
// serving layer uses to report a machine pool as one counter set. The
// latency histograms merge exactly (log2 buckets add).
func (s Snapshot) Add(o Snapshot) Snapshot {
	s.accumulate(&o, 1)
	for i, n := range o.FabricLatency {
		s.FabricLatency[i] += n
	}
	return s
}

// Sub returns s - o field-wise, for measuring an interval.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	s.accumulate(&o, -1)
	s.FabricLatency = s.FabricLatency.Sub(o.FabricLatency)
	return s
}

// HistBuckets is the number of log2 buckets in a Histogram. Bucket b counts
// observations v with 2^(b-1) <= v < 2^b (bucket 0 counts v == 0), so the
// top bucket absorbs everything >= 2^(HistBuckets-2).
const HistBuckets = 16

// Histogram is a lock-free log2-bucketed histogram of non-negative values.
// The zero value is ready to use.
type Histogram struct {
	buckets [HistBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Snapshot copies the current bucket counts.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram's buckets.
type HistSnapshot [HistBuckets]int64

// Total returns the number of observations.
func (s HistSnapshot) Total() int64 {
	var n int64
	for _, c := range s {
		n += c
	}
	return n
}

// Sub returns s - o bucket-wise, for measuring an interval.
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	var d HistSnapshot
	for i := range s {
		d[i] = s[i] - o[i]
	}
	return d
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// exclusive upper edge of the first bucket whose cumulative count reaches
// q·Total. Returns 0 on an empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	total := s.Total()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b, c := range s {
		cum += c
		if cum >= target {
			return int64(1) << b // bucket b holds v < 2^b
		}
	}
	return int64(1) << (HistBuckets - 1)
}

// String renders the snapshot as approximate quantiles.
func (s HistSnapshot) String() string {
	total := s.Total()
	if total == 0 {
		return "-"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d p50<%d p95<%d p99<%d",
		total, s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
	return sb.String()
}

// String renders the snapshot as a one-line summary. mark and ret count the
// marks and returns that ran as tasks, visits every mark body run (most run
// inline, in the wave of the task that reached their partition); inline
// counts the reduction steps run in place, beside the red tasks that ran
// them. Fabric traffic is appended only when a fabric carried messages.
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"tasks=%d (red=%d mark=%d ret=%d) inline=%d visits=%d msgs(remote=%d local=%d) rewrites=%d alloc=%d reclaimed=%d cycles=%d expunged=%d deadlocked=%d",
		s.TasksExecuted, s.ReductionTasks, s.MarkTasks, s.ReturnTasks, s.InlineSteps, s.MarkVisits,
		s.RemoteMessages, s.LocalMessages, s.Rewrites, s.Allocations,
		s.Reclaimed, s.Cycles, s.Expunged, s.DeadlockedFound)
	if s.FabricSent > 0 {
		out += fmt.Sprintf(
			" fabric(sent=%d delivered=%d batches=%d dropped=%d retried=%d dup=%d lat[µs]=%s)",
			s.FabricSent, s.FabricDelivered, s.FabricBatches, s.FabricDropped,
			s.FabricRetries, s.FabricDuplicates, s.FabricLatency)
	}
	if s.Steals > 0 || s.IdlePolls > 0 {
		out += fmt.Sprintf(" steal(ops=%d tasks=%d idle=%d)",
			s.Steals, s.StolenTasks, s.IdlePolls)
	}
	if s.CheckRuns > 0 {
		out += fmt.Sprintf(" check(runs=%d violations=%d skipped=%d)",
			s.CheckRuns, s.CheckViolations, s.CheckSkipped)
	}
	return out
}
