package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"dgr/internal/graph"
	"dgr/internal/obs"
	"dgr/internal/task"
)

// Op is what an entry of the execution record records: under §4.1's
// atomicity rule a run is one sequence of task executions, plus what a
// replay needs besides, the drains' absorbs and the collector's phases.
type Op uint8

const (
	OpExec        Op = iota + 1 // a task execution, on PE
	OpAbsorb                    // a mark or return the drain on PE took in from its pool
	OpCycle                     // a marking phase of Ctx starts; its OpRoot entries follow
	OpRoot                      // a root of that phase: Dst at priority Prior
	OpRestructure               // a restructuring phase starts; MT is the cycle's M_T flag
)

// opNames are the ops as the schedule log spells them, under "ev".
var opNames = [...]string{OpExec: "exec", OpAbsorb: "absorb", OpCycle: "cycle", OpRoot: "root", OpRestructure: "restructure"}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

func (o Op) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText reads an op by name, and refuses a name it does not know.
func (o *Op) UnmarshalText(b []byte) error {
	i := slices.Index(opNames[:], string(b))
	if i < 1 {
		return fmt.Errorf("sched: unknown ev %q", b)
	}
	*o = Op(i)
	return nil
}

// Entry is one line of the execution record, 48 bytes, and one line of the
// schedule log (JSON Lines, zero fields left out). Record clears the merge
// keys: in the log only an execution carries seq and pe, and no entry At.
// Parent, the task's causal word (task.Task.Parent), makes the execution
// entries of a recorded run its whole spawn DAG; a replay records its own.
type Entry struct {
	Seq    uint64         `json:"seq,omitempty"`    // an execution's number; another entry's, the execution count when written
	Parent uint64         `json:"parent,omitempty"` // the spawner's Seq+1; 0 from outside any execution
	Epoch  uint32         `json:"epoch,omitempty"`
	At     int64          `json:"-"` // an execution's clock, its busy window's (account.go); another entry's ticket (stamp)
	Src    graph.VertexID `json:"src,omitempty"`
	Dst    graph.VertexID `json:"dst,omitempty"`
	PE     uint16         `json:"pe,omitempty"`
	Op     Op             `json:"ev"`
	Kind   task.Kind      `json:"kind,omitempty"`
	Req    graph.ReqKind  `json:"req,omitempty"`
	Ctx    graph.Ctx      `json:"ctx,omitempty"`
	Prior  uint8          `json:"prior,omitempty"`
	MT     bool           `json:"mt,omitempty"`
}

func entryOf(op Op, pe int, t *task.Task) Entry {
	return Entry{Op: op, PE: uint16(pe), Kind: t.Kind, Src: t.Src, Dst: t.Dst,
		Req: t.Req, Ctx: t.Ctx, Prior: t.Prior, Epoch: t.Epoch, Parent: t.Parent}
}

// Task is the task an execution or absorb entry records, as a replay
// matches it: without its causal word.
func (e *Entry) Task() task.Task {
	return task.Task{Kind: e.Kind, Src: e.Src, Dst: e.Dst, Req: e.Req,
		Ctx: e.Ctx, Prior: e.Prior, Epoch: e.Epoch}
}

const (
	// FlightLen is how many of each PE's last executions the flight view
	// shows, and about all that a record keeping no schedule retains.
	FlightLen = 1024
	chunkLen  = 128 // entries a lane allocates at once
)

// lane is one writer's entries, in the order it wrote them: full chunks,
// then the one being filled.
type lane struct {
	chunks [][]Entry
	_      [40]byte // neighbouring PEs' lanes on separate lines
}

// add appends e. Unless all, once FlightLen entries are held, a new chunk
// reuses the oldest: the lane holds at most FlightLen/chunkLen+1 chunks.
func (l *lane) add(e Entry, all bool) {
	n := len(l.chunks)
	if n == 0 || len(l.chunks[n-1]) == chunkLen {
		var c []Entry
		if !all && n > FlightLen/chunkLen {
			c = l.chunks[0][:0]
			l.chunks = append(l.chunks[:0], l.chunks[1:]...)
		} else {
			c = make([]Entry, 0, chunkLen)
		}
		l.chunks = append(l.chunks, c)
		n = len(l.chunks)
	}
	l.chunks[n-1] = append(l.chunks[n-1], e)
}

// appendTo appends the lane's entries to out.
func (l *lane) appendTo(out []Entry) []Entry {
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// record is the execution record: one lane per PE, written under its slot
// lock, and one for the collector's phases; and a seeded machine's one busy
// window (account.go).
type record struct {
	all    bool
	ticket atomic.Int64
	lanes  []lane
	mu     sync.Mutex // guards phases
	phases lane
	seq    window
}

// SetRecord turns the execution record on, before any task executes. With
// all it keeps every execution, absorb (NoteAbsorb) and phase start
// (NotePhase), the schedule; without, each PE's last FlightLen executions
// and nothing else, the flight view. The execution accounting (account.go)
// runs with it if the machine has an obs handle (Config.Obs); without one
// an execution entry's clock (Entry.At) is 0. Off, an execution pays two
// nil tests.
func (m *Machine) SetRecord(all bool) {
	m.rec = &record{all: all, lanes: make([]lane, m.cfg.PEs)}
}

// stamp places a non-execution entry after the executions already started,
// before the rest, and by ticket among the entries of one count. Both are
// read after what it records happened, so it sorts after every entry it
// causally follows: an absorb after its phase's cycle entry, and after the
// execution that spawned what it took in, on whichever PE that ran.
func (m *Machine) stamp(e *Entry) {
	e.Seq = m.execSeq.Load()
	e.At = m.rec.ticket.Add(1)
}

// NoteAbsorb records that PE pe's drain took in t, if the record keeps the
// schedule. It runs under the lock of the pool t was queued in.
func (m *Machine) NoteAbsorb(pe int, t task.Task) {
	if m.rec == nil || !m.rec.all {
		return
	}
	t.Req = 0 // replay matches marking work without it
	e := entryOf(OpAbsorb, pe, &t)
	m.stamp(&e)
	s := &m.current[pe]
	s.mu.Lock()
	m.rec.lanes[pe].add(e, true)
	s.mu.Unlock()
}

// Root is a marking phase's root: a vertex and the priority it is marked at
// (core.Root).
type Root struct {
	ID    graph.VertexID
	Prior uint8
}

// NotePhase records a phase start e, an OpCycle entry with its roots or an
// OpRestructure entry, if the record keeps the schedule. The roots share the
// cycle entry's place in the replay order: M_T's are a snapshot of the task
// pools, which a replay must reuse, not take again.
func (m *Machine) NotePhase(e Entry, roots []Root) {
	if m.rec == nil || !m.rec.all {
		return
	}
	m.stamp(&e)
	m.rec.mu.Lock()
	defer m.rec.mu.Unlock()
	m.rec.phases.add(e, true)
	for _, r := range roots {
		e.Op, e.Dst, e.Prior = OpRoot, r.ID, r.Prior
		m.rec.phases.add(e, true)
	}
}

// Record returns the whole run in replay order, a serial order that a
// deterministic machine re-drives, and the schedule log's entries; the
// record must keep the schedule (SetRecord(true)). Executions sort by number
// (a task is spawned after its spawner took its number, and takes its own
// after it is popped), other entries by stamp, which is then cleared with
// their PE and every clock. An execution enters the record when it ends, so
// only a stopped machine's record is a whole run. A seeded machine's caller
// must hold off its stepping goroutine, as Flight's must.
func (m *Machine) Record() []Entry {
	var out []Entry
	for pe := range m.rec.lanes {
		out = m.readLane(out, pe)
	}
	m.rec.mu.Lock()
	out = m.rec.phases.appendTo(out)
	m.rec.mu.Unlock()
	order := func(e Entry) uint64 {
		if e.Op == OpExec {
			return 2*e.Seq + 1
		}
		return 2 * e.Seq
	}
	// Stable: a cycle's roots share its place and follow it.
	slices.SortStableFunc(out, func(a, b Entry) int {
		return cmp.Or(cmp.Compare(order(a), order(b)), cmp.Compare(a.At, b.At))
	})
	for i := range out {
		out[i].At = 0
		if out[i].Op != OpExec {
			out[i].Seq, out[i].PE = 0, 0
		}
	}
	return out
}

// Flight returns each PE's last FlightLen executions as flight rows (nil
// with the record off). A seeded machine's caller must hold off its
// stepping goroutine.
func (m *Machine) Flight() []obs.FlightEvent {
	if m.rec == nil {
		return nil
	}
	var rows []obs.FlightEvent
	for pe := range m.rec.lanes {
		execs := slices.DeleteFunc(m.readLane(nil, pe), func(e Entry) bool { return e.Op != OpExec })
		for _, e := range execs[max(0, len(execs)-FlightLen):] {
			rows = append(rows, obs.FlightEvent{TS: e.At, PE: pe, Kind: e.Kind.String(),
				Src: uint64(e.Src), Dst: uint64(e.Dst)})
		}
	}
	return rows
}

// readLane appends PE pe's entries to out, under its slot lock.
func (m *Machine) readLane(out []Entry, pe int) []Entry {
	s := &m.current[pe]
	s.mu.Lock()
	defer s.mu.Unlock()
	return m.rec.lanes[pe].appendTo(out)
}
