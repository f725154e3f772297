package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"dgr/internal/core"
	"dgr/internal/graph"
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

// Event is one entry of a recorded schedule. Log order is the replay
// order: the recorder's mutex linearizes concurrent callbacks, and because
// an execution is only recorded after its task was popped from a pool, a
// task's spawning execution always precedes its own in the log — so
// replaying the log serially is a legal serialization of the parallel run
// under the atomicity axiom of §4.1. All numeric fields use omitempty;
// JSON decoding restores absent fields to zero, which is their recorded
// value, so the compaction is lossless.
type Event struct {
	Ev string `json:"ev"`

	// Meta fields.
	Program string `json:"program,omitempty"`
	Config  string `json:"config,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	PEs     int    `json:"pes,omitempty"`
	MTEvery int    `json:"mtevery,omitempty"`

	// Exec fields, and an absorb's task fields. Seq is the scheduler's own sequence number, kept for
	// diagnostics; replay follows log order, which can differ from Seq
	// order when two PEs raced between sequence assignment and recording.
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

// Recorder captures a run's schedule. Wire OnExecute into
// sched.Config.OnExecute, OnAbsorb into core.Marker.SetAbsorbHook and the
// recorder itself into core.CollectorConfig.Recorder; it is safe for
// concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Meta appends an informational header event. Call it before the run.
func (r *Recorder) Meta(program, config string, seed int64, pes, mtEvery int) {
	r.append(Event{
		Ev: EvMeta, Program: program, Config: config,
		Seed: seed, PEs: pes, MTEvery: mtEvery,
	})
}

// OnExecute records one task execution (sched.Config.OnExecute hook).
func (r *Recorder) OnExecute(seq uint64, pe int, t task.Task) {
	r.append(Event{
		Ev: EvExec, Seq: seq, PE: pe,
		Kind: t.Kind, Src: t.Src, Dst: t.Dst, Req: t.Req,
		Ctx: t.Ctx, Prior: t.Prior, Epoch: t.Epoch,
	})
}

// OnAbsorb records a mark or return a drain took in (core.Marker's absorb
// hook).
func (r *Recorder) OnAbsorb(t task.Task) bool {
	r.append(Event{
		Ev: EvAbsorb, Kind: t.Kind, Src: t.Src, Dst: t.Dst,
		Ctx: t.Ctx, Prior: t.Prior, Epoch: t.Epoch,
	})
	return true
}

// CycleStart records a marking-phase start (core.CycleRecorder).
func (r *Recorder) CycleStart(ctx graph.Ctx, roots []core.Root) {
	rec := make([]RootRec, len(roots))
	for i, rt := range roots {
		rec[i] = RootRec{ID: rt.ID, Prior: rt.Prior}
	}
	r.append(Event{Ev: EvCycle, Ctx: ctx, Roots: rec})
}

// RestructureStart records a restructuring phase (core.CycleRecorder).
func (r *Recorder) RestructureStart(mtRan bool) {
	r.append(Event{Ev: EvRestructure, MT: mtRan})
}

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of the recorded schedule.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// WriteJSONL writes the recorded schedule as JSON Lines.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, e := range r.Events() {
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
