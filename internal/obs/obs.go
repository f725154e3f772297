// Package obs is the machine's observability layer. Each machine holds one
// handle, *Obs, and each layer under it (scheduler, fabric, collector,
// checker) is given that one handle; a nil *Obs is the disabled layer, every
// method is nil-safe, and callers on hot paths pay exactly one pointer test.
//
// The handle writes to one log (TraceSink, log.go) — private, or shared with
// the serving layer and its other pooled machines — and everything the
// machine exports about events is a reader over that log: chrome spans, the
// flight dump, trace assembly and critical-path blame. The flight dump's
// task executions are not in the log, since a mutex and a record per task is
// what the ≤ 5 % overhead budget cannot afford: they are the tail of the
// scheduler's execution record (internal/sched), merged in by the clock
// reading TaskEnd hands it. Nothing is sampled: live gauges are read when
// asked for, and per-PE busy time is a counter (BusyNs) whose rate the
// reader takes.
package obs

import (
	"sync/atomic"
	"time"
)

// Bands is the number of task-pool priority bands, mirrored from
// internal/task (obs must stay a leaf package; the dgr facade's wiring
// fails to compile if the two constants ever diverge).
const Bands = 4

// BandNames labels the bands, lowest to highest, matching internal/task's
// BandReserve..BandMarking order.
var BandNames = [Bands]string{"reserve", "eager", "vital", "marking"}

// Options configures a handle.
type Options struct {
	// PEs is the number of processing elements (required, ≥1).
	PEs int
	// Parallel tells the layer whether PE goroutines run concurrently
	// (gates which goroutine may flush per-PE batch spans).
	Parallel bool
	// Log, when non-nil, is shared with its other holders instead of the
	// handle building a private one, and enables lineage tracing (sampling
	// is then the log owner's decision).
	Log *TraceSink
	// TraceRate, when positive, enables lineage tracing with the private
	// log head-sampling at this rate.
	TraceRate float64
	// Exec enables per-task accounting: busy time, "pe-batch" spans and the
	// clock reading TaskEnd returns. Without it TaskStart/TaskEnd return after
	// one more test, which is what a machine that only traces pays.
	Exec bool
}

// window is a busy window: executions since the previous clock reading.
// Only its owner writes it.
type window struct {
	last int64 // clock at the previous accrual (or idle-resume TaskStart)
	idle bool  // next TaskStart must re-read the clock
	n    int32 // executions since the previous accrual
}

// peSlot is one PE's hot-path accounting. Only PE pe's goroutine writes the
// plain fields; readers on other goroutines load busyNs. Padded so
// neighboring PEs never share a cache line.
type peSlot struct {
	window           // the PE's own; on a seeded machine only n is used
	batchStart int64 // clock at the batch's first task
	batchN     int64 // tasks executed in the open batch
	busyNs     atomic.Int64
	_          [88]byte
}

// maxBatchSpan splits an open per-PE execution batch so a long busy period
// still produces periodic spans instead of one giant one.
const maxBatchSpan = 10 * time.Millisecond

// clockTasks is how many task executions share one clock read in the steady
// state. Busy time accrues exactly at every idle transition and safe point,
// and within clockTasks-1 executions otherwise.
const clockTasks = 32

// Obs is one machine's observability handle. Use New; a nil *Obs is the
// disabled layer and every method is a cheap no-op on it.
type Obs struct {
	opts    Options
	log     *TraceSink
	id      uint32 // this handle's TraceSpan.Mach
	tracing bool

	// Per-task accounting; nil unless Options.Exec.
	slots []peSlot
	// seq is a seeded machine's one busy window: one goroutine runs every
	// PE there, so the PEs share its clock readings (see accrue).
	seq window
}

// New builds a handle. It starts no goroutine.
func New(opts Options) *Obs {
	if opts.PEs < 1 {
		opts.PEs = 1
	}
	o := &Obs{opts: opts, log: opts.Log, tracing: opts.Log != nil || opts.TraceRate > 0}
	if o.log == nil {
		o.log = NewTraceSink(0, opts.TraceRate)
	}
	o.id = o.log.machID.Add(1)
	if opts.Exec {
		o.slots = make([]peSlot, opts.PEs)
		for i := range o.slots {
			o.slots[i].idle = true
		}
		o.seq.idle = true
	}
	return o
}

// Now returns nanoseconds on the clock (0 for nil, so a disabled layer's
// call sites read no clock).
func (o *Obs) Now() int64 {
	if o == nil {
		return 0
	}
	return Now()
}

// Lineage returns the log when lineage tracing is enabled (a shared log, or
// a positive TraceRate), else nil: the sink traced tasks record their exec,
// steal and fabric-hop spans into, and the allocator of their span IDs.
func (o *Obs) Lineage() *TraceSink {
	if o == nil || !o.tracing {
		return nil
	}
	return o.log
}

// Span records a completed global interval that began at start (a prior Now
// value) and ends now. n is an optional operation count.
func (o *Obs) Span(name, cat string, tid int, start, n int64) {
	if o == nil {
		return
	}
	o.log.Record(TraceSpan{Name: name, Cat: cat, PE: tid, Start: start, End: Now(), N: n, Mach: o.id})
}

// Event records a point occurrence (a flight-recorder row): a collector
// cycle event, a fabric message-lifecycle step, a checker violation. Format
// note only under a nil test of the handle; these events are rare enough
// that the allocation is acceptable once someone is listening.
func (o *Obs) Event(pe int, kind string, src, dst uint64, note string) {
	if o == nil {
		return
	}
	now := Now()
	o.log.Record(TraceSpan{Name: kind, Cat: CatEvent, PE: pe, Start: now, End: now,
		Src: src, Dst: dst, Note: note, Mach: o.id})
}

// mine returns this handle's global records, oldest first: its point events,
// or its intervals.
func (o *Obs) mine(events bool) []TraceSpan {
	return o.log.global.appendTo(nil, func(sp *TraceSpan) bool {
		return sp.Mach == o.id && (sp.Cat == CatEvent) == events
	})
}

// Spans returns the retained global intervals this handle recorded
// (collector phases, execution batches, fabric batch flights), oldest first.
func (o *Obs) Spans() []TraceSpan {
	if o == nil {
		return nil
	}
	return o.mine(false)
}

// TaskStart marks the beginning of a task execution on PE pe. Steady-state
// hot path: one branch. The clock is only read when the PE resumes from
// idle (or from a flushed safe point); otherwise the previous TaskEnd's
// timestamp doubles as this task's start, charging the scheduler's pop
// overhead to busy time — the honest reading for a utilization metric.
func (o *Obs) TaskStart(pe int) {
	if o == nil || o.slots == nil {
		return
	}
	w := &o.slots[pe].window
	if !o.opts.Parallel {
		w = &o.seq
	}
	if w.idle {
		w.last = Now()
		w.idle = false
	}
}

// TaskEnd marks the end of a task execution on PE pe: it counts the task
// into the open execution-batch span and returns the window's clock reading,
// the time the execution record stamps it with (0 without Options.Exec).
// Steady-state hot path: a few plain single-writer fields; the clock is read
// and busy time accrued once per clockTasks executions of the window (and
// exactly at every idle transition), so BusyNs lags live execution by at
// most clockTasks-1 tasks.
func (o *Obs) TaskEnd(pe int) int64 {
	if o == nil || o.slots == nil {
		return 0
	}
	s := &o.slots[pe]
	s.n++
	w := &s.window
	if !o.opts.Parallel {
		w = &o.seq
		w.n++
	}
	if s.batchN == 0 {
		s.batchStart = w.last
	}
	s.batchN++
	if w.n >= clockTasks {
		o.accrue(pe)
		if w.last-s.batchStart >= int64(maxBatchSpan) {
			o.flushBatch(pe)
		}
	}
	return w.last
}

// accrue reads the clock and charges the time since PE pe's window's
// previous reading as busy time. On a parallel machine it is all PE pe's.
// On a seeded one it is shared among the PEs in proportion to the tasks
// each ran in it: a PE switch then reads no clock, and the busy times add
// up to at most the wall time. Caller must be the window's single writer.
func (o *Obs) accrue(pe int) {
	now := Now()
	if o.opts.Parallel {
		s := &o.slots[pe]
		s.busyNs.Add(now - s.last)
		s.n, s.last = 0, now
		return
	}
	d := now - o.seq.last
	for i := range o.slots {
		if s := &o.slots[i]; s.n > 0 {
			s.busyNs.Add(d * int64(s.n) / int64(o.seq.n))
			s.n = 0
		}
	}
	o.seq.n, o.seq.last = 0, now
}

// PEIdle marks PE pe transitioning to idle (its pool drained): pending busy
// time accrues exactly, the open execution batch, if any, is closed into a
// span, and the next TaskStart re-reads the clock so the wait is not charged
// as busy time. Must be called from PE pe's own goroutine.
func (o *Obs) PEIdle(pe int) {
	if o == nil || o.slots == nil {
		return
	}
	o.idle(pe)
}

func (o *Obs) idle(pe int) {
	s := &o.slots[pe]
	if s.n > 0 {
		o.accrue(pe)
	}
	o.flushBatch(pe)
	s.idle = true
}

// flushBatch closes PE pe's open execution batch into a span. Caller must
// be the only writer of pe's slot (PE goroutine, or the single driver
// thread in deterministic mode).
func (o *Obs) flushBatch(pe int) {
	s := &o.slots[pe]
	if s.batchN == 0 {
		return
	}
	o.Span("pe-batch", CatSched, pe, s.batchStart, s.batchN)
	s.batchN = 0
}

// FlushBatches closes every PE's open batch and marks the PEs idle (the
// time until their next task is not execution). Only safe when no PE is
// executing (deterministic safe point, or after Stop in parallel mode).
func (o *Obs) FlushBatches() {
	if o == nil {
		return
	}
	for pe := range o.slots {
		o.idle(pe)
	}
	o.seq.idle = true
}

// CycleEnd is the collector's cycle-end hook. On a seeded machine a cycle
// end is a safe point: it closes the open execution batches so span export
// between cycles sees them. A parallel machine's PEs close their own.
func (o *Obs) CycleEnd() {
	if o == nil || o.opts.Parallel {
		return
	}
	o.FlushBatches()
}

// BusyNs returns PE pe's cumulative nanoseconds spent executing tasks
// (0 without Options.Exec). Safe for concurrent use; it lags live
// execution by at most clockTasks-1 tasks.
func (o *Obs) BusyNs(pe int) int64 {
	if o == nil || o.slots == nil {
		return 0
	}
	return o.slots[pe].busyNs.Load()
}

// Close closes any open batch spans.
func (o *Obs) Close() {
	if o == nil {
		return
	}
	o.FlushBatches()
}
