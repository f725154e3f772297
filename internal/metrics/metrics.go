// Package metrics collects the counters the experiment harness reports:
// task executions, message traffic between partitions, marking work, and
// reclamation results.
package metrics

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"
)

// Counters aggregates run statistics. All fields are safe for concurrent
// update. The zero value is ready to use.
type Counters struct {
	TasksExecuted     atomic.Int64 // all task executions
	ReductionTasks    atomic.Int64 // demand/result/reduce executions
	MarkTasks         atomic.Int64 // mark task executions
	ReturnTasks       atomic.Int64 // return task executions
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
	MaxPauseNs        atomic.Int64 // longest single mutator pause (stop-the-world baseline)
	TotalPauseNs      atomic.Int64 // cumulative mutator pause time

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

// Merge returns s + o bucket-wise: the histogram of the union of both
// observation sets (log2 buckets make merging exact). The sampler uses it
// to combine per-link histograms into one exposition series.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	var m HistSnapshot
	for i := range s {
		m[i] = s[i] + o[i]
	}
	return m
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

// ObservePause records a mutator pause, updating both the total and the max.
func (c *Counters) ObservePause(ns int64) {
	c.TotalPauseNs.Add(ns)
	for {
		cur := c.MaxPauseNs.Load()
		if ns <= cur || c.MaxPauseNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	TasksExecuted     int64
	ReductionTasks    int64
	MarkTasks         int64
	ReturnTasks       int64
	RemoteMessages    int64
	LocalMessages     int64
	Rewrites          int64
	Allocations       int64
	Reclaimed         int64
	Cycles            int64
	MTRuns            int64
	Expunged          int64
	Reprioritized     int64
	DeadlockedFound   int64
	DeadlockRetracted int64
	CoopMarks         int64
	MaxPauseNs        int64
	TotalPauseNs      int64

	Steals      int64
	StolenTasks int64
	IdlePolls   int64

	CheckRuns       int64
	CheckViolations int64
	CheckSkipped    int64

	FabricSent        int64
	FabricDelivered   int64
	FabricBatches     int64
	FabricDropped     int64
	FabricRetries     int64
	FabricDuplicates  int64
	FabricAcksDropped int64
	FabricExpunged    int64
	FabricLatency     HistSnapshot
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() Snapshot {
	return Snapshot{
		TasksExecuted:     c.TasksExecuted.Load(),
		ReductionTasks:    c.ReductionTasks.Load(),
		MarkTasks:         c.MarkTasks.Load(),
		ReturnTasks:       c.ReturnTasks.Load(),
		RemoteMessages:    c.RemoteMessages.Load(),
		LocalMessages:     c.LocalMessages.Load(),
		Rewrites:          c.Rewrites.Load(),
		Allocations:       c.Allocations.Load(),
		Reclaimed:         c.Reclaimed.Load(),
		Cycles:            c.Cycles.Load(),
		MTRuns:            c.MTRuns.Load(),
		Expunged:          c.Expunged.Load(),
		Reprioritized:     c.Reprioritized.Load(),
		DeadlockedFound:   c.DeadlockedFound.Load(),
		DeadlockRetracted: c.DeadlockRetracted.Load(),
		CoopMarks:         c.CoopMarks.Load(),
		MaxPauseNs:        c.MaxPauseNs.Load(),
		TotalPauseNs:      c.TotalPauseNs.Load(),

		Steals:      c.Steals.Load(),
		StolenTasks: c.StolenTasks.Load(),
		IdlePolls:   c.IdlePolls.Load(),

		CheckRuns:       c.CheckRuns.Load(),
		CheckViolations: c.CheckViolations.Load(),
		CheckSkipped:    c.CheckSkipped.Load(),

		FabricSent:        c.FabricSent.Load(),
		FabricDelivered:   c.FabricDelivered.Load(),
		FabricBatches:     c.FabricBatches.Load(),
		FabricDropped:     c.FabricDropped.Load(),
		FabricRetries:     c.FabricRetries.Load(),
		FabricDuplicates:  c.FabricDuplicates.Load(),
		FabricAcksDropped: c.FabricAcksDropped.Load(),
		FabricExpunged:    c.FabricExpunged.Load(),
		FabricLatency:     c.FabricLatency.Snapshot(),
	}
}

// Diff snapshots the current counters and returns the delta against a
// previous snapshot — the value-type interval helper the time-series
// sampler and the exposition endpoints use (equivalent to
// c.Snapshot().Sub(prev), in one call).
func (c *Counters) Diff(prev Snapshot) Snapshot {
	return c.Snapshot().Sub(prev)
}

// Add returns the field-wise sum of two snapshots — the aggregation the
// serving layer uses to report a machine pool as one counter set.
// MaxPauseNs takes the maximum (a pool's worst pause, not a sum of pauses).
func (s Snapshot) Add(o Snapshot) Snapshot {
	out := Snapshot{
		TasksExecuted:     s.TasksExecuted + o.TasksExecuted,
		ReductionTasks:    s.ReductionTasks + o.ReductionTasks,
		MarkTasks:         s.MarkTasks + o.MarkTasks,
		ReturnTasks:       s.ReturnTasks + o.ReturnTasks,
		RemoteMessages:    s.RemoteMessages + o.RemoteMessages,
		LocalMessages:     s.LocalMessages + o.LocalMessages,
		Rewrites:          s.Rewrites + o.Rewrites,
		Allocations:       s.Allocations + o.Allocations,
		Reclaimed:         s.Reclaimed + o.Reclaimed,
		Cycles:            s.Cycles + o.Cycles,
		MTRuns:            s.MTRuns + o.MTRuns,
		Expunged:          s.Expunged + o.Expunged,
		Reprioritized:     s.Reprioritized + o.Reprioritized,
		DeadlockedFound:   s.DeadlockedFound + o.DeadlockedFound,
		DeadlockRetracted: s.DeadlockRetracted + o.DeadlockRetracted,
		CoopMarks:         s.CoopMarks + o.CoopMarks,
		MaxPauseNs:        s.MaxPauseNs,
		TotalPauseNs:      s.TotalPauseNs + o.TotalPauseNs,

		Steals:      s.Steals + o.Steals,
		StolenTasks: s.StolenTasks + o.StolenTasks,
		IdlePolls:   s.IdlePolls + o.IdlePolls,

		CheckRuns:       s.CheckRuns + o.CheckRuns,
		CheckViolations: s.CheckViolations + o.CheckViolations,
		CheckSkipped:    s.CheckSkipped + o.CheckSkipped,

		FabricSent:        s.FabricSent + o.FabricSent,
		FabricDelivered:   s.FabricDelivered + o.FabricDelivered,
		FabricBatches:     s.FabricBatches + o.FabricBatches,
		FabricDropped:     s.FabricDropped + o.FabricDropped,
		FabricRetries:     s.FabricRetries + o.FabricRetries,
		FabricDuplicates:  s.FabricDuplicates + o.FabricDuplicates,
		FabricAcksDropped: s.FabricAcksDropped + o.FabricAcksDropped,
		FabricExpunged:    s.FabricExpunged + o.FabricExpunged,
	}
	if o.MaxPauseNs > out.MaxPauseNs {
		out.MaxPauseNs = o.MaxPauseNs
	}
	for i := range out.FabricLatency {
		out.FabricLatency[i] = s.FabricLatency[i] + o.FabricLatency[i]
	}
	return out
}

// String renders the snapshot as a one-line summary. Fabric traffic is
// appended only when a fabric carried messages.
func (s Snapshot) String() string {
	out := fmt.Sprintf(
		"tasks=%d (red=%d mark=%d ret=%d) msgs(remote=%d local=%d) rewrites=%d alloc=%d reclaimed=%d cycles=%d expunged=%d deadlocked=%d",
		s.TasksExecuted, s.ReductionTasks, s.MarkTasks, s.ReturnTasks,
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

// Sub returns s - o field-wise, for measuring an interval.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		TasksExecuted:     s.TasksExecuted - o.TasksExecuted,
		ReductionTasks:    s.ReductionTasks - o.ReductionTasks,
		MarkTasks:         s.MarkTasks - o.MarkTasks,
		ReturnTasks:       s.ReturnTasks - o.ReturnTasks,
		RemoteMessages:    s.RemoteMessages - o.RemoteMessages,
		LocalMessages:     s.LocalMessages - o.LocalMessages,
		Rewrites:          s.Rewrites - o.Rewrites,
		Allocations:       s.Allocations - o.Allocations,
		Reclaimed:         s.Reclaimed - o.Reclaimed,
		Cycles:            s.Cycles - o.Cycles,
		MTRuns:            s.MTRuns - o.MTRuns,
		Expunged:          s.Expunged - o.Expunged,
		Reprioritized:     s.Reprioritized - o.Reprioritized,
		DeadlockedFound:   s.DeadlockedFound - o.DeadlockedFound,
		DeadlockRetracted: s.DeadlockRetracted - o.DeadlockRetracted,
		CoopMarks:         s.CoopMarks - o.CoopMarks,
		MaxPauseNs:        s.MaxPauseNs,
		TotalPauseNs:      s.TotalPauseNs - o.TotalPauseNs,

		Steals:      s.Steals - o.Steals,
		StolenTasks: s.StolenTasks - o.StolenTasks,
		IdlePolls:   s.IdlePolls - o.IdlePolls,

		CheckRuns:       s.CheckRuns - o.CheckRuns,
		CheckViolations: s.CheckViolations - o.CheckViolations,
		CheckSkipped:    s.CheckSkipped - o.CheckSkipped,

		FabricSent:        s.FabricSent - o.FabricSent,
		FabricDelivered:   s.FabricDelivered - o.FabricDelivered,
		FabricBatches:     s.FabricBatches - o.FabricBatches,
		FabricDropped:     s.FabricDropped - o.FabricDropped,
		FabricRetries:     s.FabricRetries - o.FabricRetries,
		FabricDuplicates:  s.FabricDuplicates - o.FabricDuplicates,
		FabricAcksDropped: s.FabricAcksDropped - o.FabricAcksDropped,
		FabricExpunged:    s.FabricExpunged - o.FabricExpunged,
		FabricLatency:     s.FabricLatency.Sub(o.FabricLatency),
	}
}
