// Package obs is the machine's observability layer. Each machine holds one
// handle, *Obs, and each layer under it (scheduler, fabric, collector,
// checker) is given that one handle; a nil *Obs is the disabled layer, every
// method is nil-safe, and callers on hot paths pay exactly one pointer test.
//
// The handle writes to one log (TraceSink, log.go) — private, or shared with
// the serving layer and its other pooled machines — and everything the
// machine exports about events is a reader over that log: chrome spans, the
// flight dump, trace assembly and critical-path blame. The handle keeps no
// per-PE state. What a PE executes is the scheduler's (internal/sched): its
// execution record, whose tail is the flight dump's task executions, merged
// in by the clock each entry carries, and the per-PE accounting beside it,
// busy time and the "pe-batch" spans it records here through Span. Nothing
// is sampled: live gauges are read when asked for, and per-PE busy time is
// a counter whose rate the reader takes.
package obs

import "sync/atomic"

// Bands is the number of task-pool priority bands, mirrored from
// internal/task (obs must stay a leaf package; the dgr facade's wiring
// fails to compile if the two constants ever diverge).
const Bands = 4

// BandNames labels the bands, lowest to highest, matching internal/task's
// BandReserve..BandMarking order.
var BandNames = [Bands]string{"reserve", "eager", "vital", "marking"}

// Options configures a handle.
type Options struct {
	// Log, when non-nil, is shared with its other holders instead of the
	// handle building a private one, and enables lineage tracing (sampling
	// is then the log owner's decision).
	Log *TraceSink
	// TraceRate, when positive, enables lineage tracing with the private
	// log head-sampling at this rate.
	TraceRate float64
}

// Obs is one machine's observability handle. Use New; a nil *Obs is the
// disabled layer and every method is a cheap no-op on it.
type Obs struct {
	log     *TraceSink
	id      uint32 // this handle's TraceSpan.Mach
	tracing bool
	eval    atomic.Pointer[EvalTrace] // the sampled evaluation running, or nil
}

// New builds a handle. It starts no goroutine.
func New(opts Options) *Obs {
	o := &Obs{log: opts.Log, tracing: opts.Log != nil || opts.TraceRate > 0}
	if o.log == nil {
		o.log = NewTraceSink(0, opts.TraceRate)
	}
	o.id = o.log.machID.Add(1)
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
// a positive TraceRate), else nil: the sink sampled evaluations record their
// spans into, and the allocator of their trace and span IDs.
func (o *Obs) Lineage() *TraceSink {
	if o == nil || !o.tracing {
		return nil
	}
	return o.log
}

// EvalTrace is a sampled evaluation in progress on the handle's machine: its
// trace, its eval span and that span's parent, and the number (Seq+1) of its
// first execution. A task is the evaluation's when its causal word
// (task.Task.Parent) is 0 (the root demand) or one of the evaluation's.
type EvalTrace struct {
	Trace, Span, Parent, First uint64
	start                      int64
	sink                       *TraceSink
}

// BeginEval opens the "eval" span of an evaluation of trace under span
// parent, whose executions are numbered from first on, and makes it the
// handle's sampled evaluation. Unless Lineage and trace are set, it is nil.
func (o *Obs) BeginEval(trace, parent, first uint64) *EvalTrace {
	s := o.Lineage()
	if s == nil || trace == 0 {
		return nil
	}
	tr := &EvalTrace{Trace: trace, Span: s.NewSpan(), Parent: parent, First: first, start: Now(), sink: s}
	o.eval.Store(tr)
	return tr
}

// EndEval records tr's eval span, and clears tr unless a later BeginEval
// replaced it; an execution begun under it still records its span.
func (o *Obs) EndEval(tr *EvalTrace) {
	if tr == nil {
		return
	}
	o.eval.CompareAndSwap(tr, nil)
	tr.sink.Record(TraceSpan{Trace: tr.Trace, Span: tr.Span, Parent: tr.Parent, Name: "eval",
		Cat: CatEval, PE: TIDEval, Mach: o.id, Start: tr.start, End: Now()})
}

// Traced returns the handle's sampled evaluation and the clock if a task is
// the evaluation's: a reduction task whose causal word parent is 0 or one of
// its executions. Otherwise, and on a nil handle after one test, it is nil.
func (o *Obs) Traced(reduction bool, parent uint64) (*EvalTrace, int64) {
	if o == nil {
		return nil, 0
	}
	if tr := o.eval.Load(); tr != nil && reduction && (parent == 0 || parent >= tr.First) {
		return tr, Now()
	}
	return nil, 0
}

// Record records sp, a span about a task of the evaluation whose causal word
// is parent, under its spawner's span: execution parent's, or the eval's.
// An exec span is named by its execution (ExecSpan), any other afresh.
func (tr *EvalTrace) Record(parent uint64, sp TraceSpan) {
	sp.Trace, sp.Parent = tr.Trace, tr.Span
	if parent != 0 {
		sp.Parent = ExecSpan(parent)
	}
	if sp.Span == 0 {
		sp.Span = tr.sink.NewSpan()
	}
	tr.sink.Record(sp)
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
