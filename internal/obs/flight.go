package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// FlightEvent is one row of the flight recorder's dump: a task execution
// from a PE's exec ring, or one of the handle's point events from the log.
// TS is nanoseconds on the clock; PE is the acting processing element, or
// TIDCollector / TIDFabric / TIDEval for the non-PE actors.
type FlightEvent struct {
	TS   int64  `json:"ts"`
	PE   int    `json:"pe"`
	Kind string `json:"kind"`
	Src  uint64 `json:"src,omitempty"`
	Dst  uint64 `json:"dst,omitempty"`
	Note string `json:"note,omitempty"`
}

// execRingSize is each PE's exec-ring capacity (a power of two).
const execRingSize = 1024

// peExec is one task execution in a PE's ring, packed into two atomic
// words: when holds ts<<8|kind (56 bits of nanoseconds since process start —
// two years — plus the numeric task kind), ends holds src<<32|dst (vertex
// IDs are 32 bits). The ring has a single writer (the PE's goroutine, or the
// driver thread in deterministic mode) so stores never contend, and a dump
// racing the writer can at worst read a torn *entry* (words from two
// executions), never unsafe memory — which is why the entry holds a numeric
// kind instead of a string.
type peExec struct {
	when atomic.Uint64
	ends atomic.Uint64
}

// peRing is a lock-free single-writer ring of executions.
type peRing struct {
	ring []peExec
	next atomic.Uint64
	_    [32]byte // keep neighboring PEs off this cache line
}

func newExecRings(pes int) []peRing {
	rings := make([]peRing, pes)
	for i := range rings {
		rings[i].ring = make([]peExec, execRingSize)
	}
	return rings
}

// note records one task execution: two uncontended atomic stores and a head
// publish. This is the scheduler's per-task path.
func (r *peRing) note(ts int64, kind uint8, src, dst uint64) {
	n := r.next.Load()
	e := &r.ring[n&(execRingSize-1)]
	e.when.Store(uint64(ts)<<8 | uint64(kind))
	e.ends.Store(src<<32 | dst&0xffffffff)
	r.next.Store(n + 1)
}

func (o *Obs) kindName(k uint8) string {
	if int(k) < len(o.opts.KindNames) && o.opts.KindNames[k] != "" {
		return o.opts.KindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Events returns the point events this handle recorded (collector cycle
// events, the fabric message lifecycle, checker violations), oldest first.
func (o *Obs) Events() []FlightEvent {
	if o == nil {
		return nil
	}
	recs := o.mine(true)
	out := make([]FlightEvent, len(recs))
	for i, sp := range recs {
		out[i] = FlightEvent{TS: sp.Start, PE: sp.PE, Kind: sp.Name, Src: sp.Src, Dst: sp.Dst, Note: sp.Note}
	}
	return out
}

// FlightEvents returns the flight recorder's view: the handle's retained
// point events merged with every PE's exec ring in timestamp order. A dump
// racing a still-executing PE may mix the fields of the couple of entries
// at that ring's head; dumps happen on failure or exposition, where that
// imprecision is acceptable.
func (o *Obs) FlightEvents() []FlightEvent {
	if o == nil {
		return nil
	}
	out := o.Events()
	for pe := range o.execs {
		r := &o.execs[pe]
		n := r.next.Load()
		for i := n - min(n, execRingSize); i < n; i++ {
			e := &r.ring[i&(execRingSize-1)]
			when, ends := e.when.Load(), e.ends.Load()
			out = append(out, FlightEvent{
				TS:   int64(when >> 8),
				PE:   pe,
				Kind: o.kindName(uint8(when)),
				Src:  ends >> 32,
				Dst:  ends & 0xffffffff,
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// WriteFlightJSONL dumps the flight recorder as JSON Lines, oldest event
// first — the artifact the machine writes automatically when it reports
// ErrDeadlock or an invariant violation, and the rows dgr-trace -jsonl
// prints (a handle without exec rings writes its point events alone).
func (o *Obs) WriteFlightJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range o.FlightEvents() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
