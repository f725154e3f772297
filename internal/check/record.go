package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// Event kinds in a schedule log.
const (
	// EvMeta is an informational header: what ran, with which knobs.
	EvMeta = "meta"
	// EvExec is one task execution: (pe, task) in global execution order.
	EvExec = "exec"
	// EvAbsorb is a mark or return a drain took in from its partition's
	// pool (core.Marker's absorb): it ran, but not as an execution.
	EvAbsorb = "absorb"
	// EvCycle is a marking-phase start with its explicit root set.
	EvCycle = "cycle"
	// EvRestructure is a restructuring-phase run.
	EvRestructure = "restructure"
)

// Event is one entry of a recorded schedule, the JSON form of an entry of
// the machine's execution record. Log order is the record's replay order
// (sched.Machine.Record), a legal serialization of a parallel run under the
// atomicity axiom of §4.1. All numeric fields use omitempty; JSON decoding
// restores absent fields to zero, which is their recorded value, so the
// compaction is lossless.
type Event struct {
	Ev string `json:"ev"`

	// Meta fields.
	Program string `json:"program,omitempty"`
	Config  string `json:"config,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	PEs     int    `json:"pes,omitempty"`
	MTEvery int    `json:"mtevery,omitempty"`

	// Exec fields, and an absorb's task fields. Seq is the execution's
	// sequence number, which log order follows; an absorb has none, nor a PE.
	Seq   uint64         `json:"seq,omitempty"`
	PE    int            `json:"pe,omitempty"`
	Kind  task.Kind      `json:"kind,omitempty"`
	Src   graph.VertexID `json:"src,omitempty"`
	Dst   graph.VertexID `json:"dst,omitempty"`
	Req   graph.ReqKind  `json:"req,omitempty"`
	Ctx   graph.Ctx      `json:"ctx,omitempty"`
	Prior uint8          `json:"prior,omitempty"`
	Epoch uint64         `json:"epoch,omitempty"`

	// Cycle fields (Ctx above selects the context).
	Roots []RootRec `json:"roots,omitempty"`

	// Restructure fields.
	MT bool `json:"mt,omitempty"`
}

// RootRec is a recorded marking root.
type RootRec struct {
	ID    graph.VertexID `json:"id"`
	Prior uint8          `json:"prior,omitempty"`
}

// Task reconstructs the executed task from an exec event.
func (e Event) Task() task.Task {
	return task.Task{
		Kind: e.Kind, Src: e.Src, Dst: e.Dst, Req: e.Req,
		Ctx: e.Ctx, Prior: e.Prior, Epoch: e.Epoch,
	}
}

// Events converts the machine's execution record (sched.Machine.Record) to
// schedule events, in its order.
func Events(rec []sched.Entry) []Event {
	var events []Event
	for _, e := range rec {
		switch e.Op {
		case sched.OpExec, sched.OpAbsorb:
			ev := Event{Ev: EvExec, Seq: e.Seq, PE: int(e.PE)}
			if e.Op == sched.OpAbsorb {
				ev = Event{Ev: EvAbsorb}
			}
			ev.Kind, ev.Src, ev.Dst, ev.Req = e.Kind, e.Src, e.Dst, e.Req
			ev.Ctx, ev.Prior, ev.Epoch = e.Ctx, e.Prior, e.Epoch
			events = append(events, ev)
		case sched.OpCycle:
			events = append(events, Event{Ev: EvCycle, Ctx: e.Ctx})
		case sched.OpRoot:
			c := &events[len(events)-1]
			c.Roots = append(c.Roots, RootRec{ID: e.Dst, Prior: e.Prior})
		case sched.OpRestructure:
			events = append(events, Event{Ev: EvRestructure, MT: e.MT})
		}
	}
	return events
}

// WriteJSONL writes schedule events as JSON Lines, one event a line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a schedule log written by WriteJSONL, one event a line.
// A field Event does not declare is an error, not a field to skip: it is a
// decision some other build recorded (an incremental-sweep scope, "sweep",
// until the collector lost it), and a replay that ignored it would diverge
// somewhere unrelated.
func ReadJSONL(rd io.Reader) ([]Event, error) {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	var events []Event
	for {
		var e Event
		if err := dec.Decode(&e); err != nil {
			if errors.Is(err, io.EOF) {
				return events, nil
			}
			return events, fmt.Errorf("check: schedule log line %d: %w", len(events)+1, err)
		}
		events = append(events, e)
	}
}
