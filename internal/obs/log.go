package obs

// The one event log. Every low-rate occurrence the machine records —
// collector phase, cycle event, per-PE execution batch, fabric flush / retry
// / drop / delivery and batch flight, checker violation, and the steal /
// fabric-hop / exec / eval / serve spans of a sampled request — is one
// TraceSpan in one TraceSink, stamped on one process-wide monotonic clock.
// Chrome spans, the flight dump, the event JSONL and trace assembly are
// readers over it (expo.go, flight.go, lineage.go).

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the clock. It is process-wide, not per machine, so records
// from machines that share a log order correctly, and it counts from process
// start, not from 1970.
var epoch = time.Now()

// Now returns nanoseconds on the process-wide monotonic clock: the time base
// of every record, and of the execution record's stamps and busy time.
func Now() int64 { return int64(time.Since(epoch)) }

// At places a time.Time on the clock (exactly, when t carries Go's monotonic
// reading, as every time.Now value does).
func At(t time.Time) int64 { return int64(t.Sub(epoch)) }

// Record categories. Critical-path blame keys off Cat, so producers must use
// these exact strings.
const (
	CatExec   = "exec"   // a task execution on a PE
	CatSteal  = "steal"  // a cross-PE steal (point annotation of the stolen task)
	CatFabric = "fabric" // a fabric hop or retry of a traced task; a batch flight
	CatServe  = "serve"  // serving-layer phases: request/admission/memo/settle
	CatEval   = "eval"   // one machine evaluation (root of the task subtree)
	CatGC     = "gc"     // a collector phase (M_T, M_R, restructure): overlap is blamed
	CatQueue  = "queue"  // synthesized: wait between the spawner's end and execution
	// Not blamed: the collector's enclosing intervals (cycle, sweep), per-PE
	// execution batches, and point events (the flight recorder's rows).
	CatCollector = "collector"
	CatSched     = "sched"
	CatEvent     = "event"
)

// Well-known PE values for non-PE actors.
const (
	TIDCollector = -1
	TIDFabric    = -2
	// TIDEval marks machine-level evaluation envelopes, serving-layer phase
	// spans and checker events (no single PE owns them).
	TIDEval = -3
)

// TraceSpan is the log's one record: who (PE, Mach), what (Name, Cat, Src,
// Dst, Note), cause (Trace, Span, Parent), when (Start, End; equal for a
// point event) and cost (Queue, N). Trace != 0 marks a span of a sampled
// request; Trace == 0 is a global record that belongs to no one trace. An
// exec span is named by its execution's number (ExecSpan), every other span
// by NewSpan. Queue, which AssembleTraces sets on exec spans, is Start minus
// the spawner's End (the eval span's Start, for a root demand), clamped at 0:
// the wait the blame pass decomposes into fabric / steal / queue.
type TraceSpan struct {
	Trace  uint64 `json:"trace,omitempty"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Cat    string `json:"cat"`
	PE     int    `json:"pe"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Queue  int64  `json:"queue_ns,omitempty"`
	N      int64  `json:"n,omitempty"`
	Src    uint64 `json:"src,omitempty"`
	Dst    uint64 `json:"dst,omitempty"`
	Note   string `json:"note,omitempty"`
	// Mach identifies the Obs handle that emitted a global record or an
	// eval span, so each machine's flight dump and chrome export select
	// their own from a shared log, and a trace's critical path blames only
	// its own machines' collectors (0: emitted without a handle, e.g. by
	// the serving layer).
	Mach uint32 `json:"mach,omitempty"`
}

// ring retains the last max records put into it. The backing array is taken
// on the first put, so a class nothing writes to costs nothing.
type ring struct {
	mu   sync.Mutex
	buf  []TraceSpan
	max  int
	next uint64 // records ever put; ring index = next % max
}

func (r *ring) put(sp TraceSpan) {
	r.mu.Lock()
	switch {
	case r.buf == nil:
		r.buf = append(make([]TraceSpan, 0, r.max), sp)
	case len(r.buf) < r.max:
		r.buf = append(r.buf, sp)
	default:
		r.buf[r.next%uint64(r.max)] = sp
	}
	r.next++
	r.mu.Unlock()
}

// appendTo appends the retained records for which keep is true (all, when
// keep is nil) to out, oldest first.
func (r *ring) appendTo(out []TraceSpan, keep func(*TraceSpan) bool) []TraceSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := r.next - uint64(len(r.buf)); i < r.next; i++ {
		if sp := &r.buf[i%uint64(r.max)]; keep == nil || keep(sp) {
			out = append(out, *sp)
		}
	}
	return out
}

// dropped reports how many records have been evicted.
func (r *ring) dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - uint64(len(r.buf))
}

// TraceSink is the log: two rings of TraceSpans — the spans of sampled
// traces, and everything global — plus the trace/span ID allocators and the
// head-sampling state. The classes are separate so that an idle server's
// collector, which cycles forever, cannot evict request traces (nor a burst
// of traced requests the collector intervals they are blamed against). One
// sink may be shared by the serving layer and every pooled machine. All
// methods are safe for concurrent use; a nil *TraceSink is inert.
type TraceSink struct {
	traced, global ring

	rate    uint64        // math.Float64bits of the sampling rate
	acc     atomic.Uint64 // sampling accumulator (requests seen)
	force   atomic.Bool   // sticky always-sample, set on violation/stuck
	spanID  atomic.Uint64
	traceID atomic.Uint64
	machID  atomic.Uint32
}

// NewTraceSink returns a sink retaining the last capacity trace spans
// (default 1<<16) and an eighth as many global records (at least 1024), and
// head-sampling traces at rate (clamped to [0,1]).
func NewTraceSink(capacity int, rate float64) *TraceSink {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	s := &TraceSink{rate: math.Float64bits(math.Max(0, math.Min(1, rate)))}
	s.traced.max = capacity
	s.global.max = max(capacity/8, 1024)
	return s
}

// Rate returns the configured head-sampling rate.
func (s *TraceSink) Rate() float64 {
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.rate)
}

// Force switches the sink into always-sample mode — called when the machine
// reports a violation, a deadlock, or ErrStuck, so every request after a
// failure is traced regardless of the rate. Sticky.
func (s *TraceSink) Force() {
	if s != nil {
		s.force.Store(true)
	}
}

// Sample makes one head-sampling decision: deterministic rate-accumulator
// sampling (every 1/rate-th request), overridden to true while forced.
func (s *TraceSink) Sample() bool {
	if s == nil {
		return false
	}
	if s.force.Load() {
		return true
	}
	rate := s.Rate()
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	n := s.acc.Add(1)
	return uint64(float64(n)*rate) > uint64(float64(n-1)*rate)
}

// NewTrace allocates a fresh nonzero trace ID.
func (s *TraceSink) NewTrace() uint64 { return s.traceID.Add(1) }

// NewSpan allocates a fresh nonzero span ID, below the exec spans' tag.
func (s *TraceSink) NewSpan() uint64 { return s.spanID.Add(1) &^ execTag }

// execTag sets an exec span's ID apart from every NewSpan ID.
const execTag = 1 << 63

// ExecSpan is the span ID of execution number n (the execution record's Seq
// plus one): a trace node and a record entry are one identity.
func ExecSpan(n uint64) uint64 { return n | execTag }

// Record appends one record to its class's ring, evicting that class's
// oldest when full.
func (s *TraceSink) Record(sp TraceSpan) {
	if s == nil {
		return
	}
	if sp.Trace != 0 {
		s.traced.put(sp)
	} else {
		s.global.put(sp)
	}
}

// Spans returns the retained records (trace spans, then global records),
// oldest first within each class, plus how many trace spans were evicted.
func (s *TraceSink) Spans() (spans []TraceSpan, dropped uint64) {
	if s == nil {
		return nil, 0
	}
	return s.global.appendTo(s.traced.appendTo(nil, nil), nil), s.traced.dropped()
}

// GlobalDropped returns how many global records were evicted.
func (s *TraceSink) GlobalDropped() uint64 { return s.global.dropped() }
