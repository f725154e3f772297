// Package sched implements the processing elements (PEs) of the model: n
// autonomous workers, each owning one graph partition and one task pool, and
// executing tasks whose destination vertex lives on that partition.
//
// Two interchangeable execution modes are provided:
//
//   - Deterministic: a single thread repeatedly picks a pseudo-random
//     non-empty PE (seeded), pops one task and executes it. Every
//     interleaving of marking and mutation is reproducible from the seed,
//     which the concurrency property tests exploit.
//   - Parallel: one goroutine per PE, one loop each: it pops from its own
//     pool, steals from the most-loaded peer when Config.Steal is set, and
//     parks on its pool with a timed wait. This is the "real" distributed
//     execution used by examples and throughput benchmarks. Stop abandons
//     what is still queued instead of running it.
//
// Task spawns crossing a partition boundary are remote messages. Without a
// fabric they are pushed straight into the destination pool and merely
// counted; with Config.Fabric set they transit a simulated inter-PE network
// (internal/fabric) with batching, latency, loss, and at-least-once
// redelivery. In-transit tasks still count toward the inflight total, so
// quiescence detection and M_T's taskpool snapshot remain sound.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dgr/internal/fabric"
	"dgr/internal/graph"
	"dgr/internal/lock"
	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/task"
)

// Mode selects the execution strategy.
type Mode uint8

// Execution modes.
const (
	// Deterministic executes tasks one at a time under a seeded RNG.
	Deterministic Mode = iota + 1
	// Parallel runs one goroutine per PE.
	Parallel
)

// ErrNotRunning is returned by operations that require Start in Parallel mode.
var ErrNotRunning = errors.New("sched: machine not running")

// Handler executes one task on processing element pe. Implementations (the
// marking engine and the reduction engine, composed by internal/core's
// dispatcher) call back into Machine.Spawn to propagate work, or into
// Machine.HandOff to run a task of the running task's partition later in
// the same execution.
type Handler interface {
	Handle(pe int, t task.Task)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(pe int, t task.Task)

// Handle implements Handler.
func (f HandlerFunc) Handle(pe int, t task.Task) { f(pe, t) }

// Watch observes the machine for reduction activity touching a fixed vertex
// set. The collector arms one over each pending (unconfirmed) deadlock
// verdict: any reduction task spawned, popped for execution, or delivered by
// the fabric whose source or destination lies in the watched set marks the
// watch touched, which vetoes confirmation at the next M_T cycle. Marking
// tasks deliberately do not count — M_R legally visits genuinely deadlocked
// vertices every cycle, and marking cannot re-animate anything.
type Watch struct {
	ids     map[graph.VertexID]bool
	touched atomic.Bool
}

// NewWatch builds a watch over ids. The set is immutable afterwards, so
// Note is safe from any goroutine.
func NewWatch(ids []graph.VertexID) *Watch {
	w := &Watch{ids: make(map[graph.VertexID]bool, len(ids))}
	for _, id := range ids {
		w.ids[id] = true
	}
	return w
}

// Touched reports whether any reduction activity reached the watched set.
func (w *Watch) Touched() bool { return w.touched.Load() }

// Note records one task event against the watch.
func (w *Watch) Note(t task.Task) {
	if !t.Kind.IsReduction() || w.touched.Load() {
		return
	}
	if w.ids[t.Src] || w.ids[t.Dst] {
		w.touched.Store(true)
	}
}

// Config parameterizes a Machine.
type Config struct {
	// PEs is the number of processing elements (≥1).
	PEs int
	// Mode selects deterministic or parallel execution.
	Mode Mode
	// Seed drives the deterministic scheduler's PE/task choices.
	Seed int64
	// Adversarial, in deterministic mode, pops a uniformly random task from
	// the chosen PE instead of respecting priority bands, maximizing
	// interleaving coverage.
	Adversarial bool
	// PartOf maps a vertex to its owning partition; required.
	PartOf func(graph.VertexID) int
	// Counters receives statistics; optional.
	Counters *metrics.Counters
	// Fabric, when non-nil, carries every cross-partition spawn through a
	// simulated inter-PE network with these dials; New builds it from the
	// machine's PEs, mode, seed, counters and obs handle. Local spawns bypass
	// it. The machine owns its lifecycle: Step pumps it (deterministic mode),
	// Start starts its pump and Stop closes it (parallel mode).
	Fabric *fabric.Params

	// Steal, in parallel mode, lets a PE whose band queues are empty take a
	// batch from the tail of the most-loaded peer's rings instead of
	// blocking. Deterministic mode ignores it (the seeded scheduler already
	// sees every pool, and schedules must stay byte-identical to the
	// recorded goldens).
	Steal bool

	// Obs, when non-nil, receives per-execution timing, batch spans, and
	// idle transitions — every call a nil-safe no-op when unset, so the hot
	// path pays one pointer test for the disabled layer — and, while it
	// holds a sampled evaluation (obs.EvalTrace), the exec span of each of
	// that evaluation's reduction executions and its steal annotations.
	Obs *obs.Obs

	// AfterExecute, when set, is called after every task execution
	// completes (accounting included). In deterministic mode this is a
	// safe point: no task is mid-execution and no vertex lock is held, so
	// the invariant checker can sweep the graph. In parallel mode other
	// PEs may still be executing; hooks must tolerate that.
	AfterExecute func(seq uint64, pe int, t task.Task)
}

// Machine is the PE ensemble.
type Machine struct {
	cfg     Config
	pools   []*task.Pool
	handler Handler
	fab     *fabric.Fabric

	// inflight counts queued + currently executing tasks. It is atomic so
	// the Spawn/execute hot path does not serialize the PEs; mu is only
	// taken on the rare transition to zero and by Quiet.
	inflight atomic.Int64
	mu       sync.Mutex
	// quiet is the quiescence signal: Quiet hands it out while tasks are in
	// flight, and the release that empties the machine closes and clears it.
	quiet   chan struct{}
	running bool

	rng *rand.Rand // deterministic mode only

	// execSeq numbers task executions globally (the record's replay
	// order); assigned at execution start.
	execSeq atomic.Uint64
	// inline counts the steps handlers ran in place (AddSteps). Steps is
	// execSeq plus inline.
	inline atomic.Uint64
	// wakeAt is the step count WaitSteps is waiting for (0: none); an
	// execution or AddSteps that finds the count reached sends on wake, which
	// only a parallel machine has.
	wakeAt atomic.Uint64
	wake   chan struct{}

	// current[i] publishes PE i's in-execution task and its pending hand-off,
	// so M_T's troot snapshot cannot miss a task that is neither queued nor
	// finished. Each slot is a preallocated per-PE struct guarded by its own
	// lock, which a deterministic machine's slots skip (see curSlot): the
	// previous atomic.Pointer design forced every execution to heap-allocate
	// a task copy for the pointer to point at — one allocation per task on
	// the hottest path in the machine. Readers (EachCurrent) are rare;
	// writers only ever touch their own PE's uncontended lock.
	current []curSlot

	// stepScratch is Step's reusable non-empty-PE selection buffer.
	// Deterministic mode is single-threaded by contract, so one buffer
	// per machine suffices and Step allocates nothing.
	stepScratch []int

	// watch is the collector's armed re-animation watch, nil when no
	// deadlock verdict is pending. The spawn, deliver, pop and steal paths
	// pay one atomic pointer load for it.
	watch atomic.Pointer[Watch]

	// rec is the execution record, nil unless SetRecord was called.
	rec *record

	wg sync.WaitGroup
}

// curSlot is one PE's in-execution task slot, two cache lines long, which
// keeps neighboring PEs' slots off each other's lines (each PE writes its
// slot twice per task: the publish at the pop, the retire when the task is
// done). execs rides along under the same per-PE lock: it is the PE's
// execution count, incremented by the publish, and read (rarely) by
// ExecutionsByPE for balance reporting. running is the running execution's
// number (Running). ts[cur] is the running task and
// ts[cur^1] the PE's pending hand-off (HandOff), so taking the hand-off
// (TakeHandOff) flips cur and moves no task. A deterministic machine's slots
// are serial, like its pools: its one goroutine is the only writer, and its
// owner fences the readers.
type curSlot struct {
	mu lock.Mutex
	// valid, handing and cur follow mu so that they fill the padding after
	// mu's mode bit.
	valid, handing bool
	cur            uint8
	ts             [2]task.Task
	execs          uint64
	// running is only the PE's: execute writes it, the handler reads it.
	running uint64
	_       [32]byte
}

// publish makes t the PE's in-execution task and counts its execution. Every
// task the PE executes is published once, before execute runs it: by its
// pool's take hook under the pool lock, or by ExecuteMatching.
func (s *curSlot) publish(t task.Task) {
	s.mu.Lock()
	s.ts[s.cur] = t
	s.valid = true
	s.execs++
	s.mu.Unlock()
}

// New builds a machine. SetHandler must be called before any task executes.
// Config.PartOf is required: every vertex must map to a partition in
// [0, PEs); a PartOf that strays out of range masks misrouted messages, so
// the machine panics at the first offending lookup rather than clamping.
func New(cfg Config) *Machine {
	if cfg.PEs < 1 {
		cfg.PEs = 1
	}
	if cfg.Mode == 0 {
		cfg.Mode = Deterministic
	}
	if cfg.PartOf == nil {
		panic("sched: Config.PartOf is required")
	}
	m := &Machine{
		cfg:   cfg,
		pools: make([]*task.Pool, cfg.PEs),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Mode == Parallel {
		m.wake = make(chan struct{}, 1)
	}
	m.current = make([]curSlot, cfg.PEs)
	m.stepScratch = make([]int, 0, cfg.PEs)
	// A deterministic machine runs one task at a time on one goroutine, so
	// its pools and slots take no lock (task.NewSerialPool, lock.Mutex).
	serial := cfg.Mode == Deterministic
	for i := range m.pools {
		m.current[i].mu.SetSerial(serial)
		if serial {
			m.pools[i] = task.NewSerialPool()
		} else {
			m.pools[i] = task.NewPool()
		}
		// Publish every consumed task as PE i's in-execution task while the
		// pool lock is still held (pool i is consumed only by PE i; stolen
		// tasks land in the thief's own pool before being popped). Published
		// any later, a task would be invisible to both EachQueued and
		// EachCurrent for a while — M_T's troot snapshot reads the pools first
		// and the current slots second, so with the pop-time publish every
		// task is in at least one view at every instant. It is the task's one
		// publish: execute leaves the slot alone until the task is done.
		slot := &m.current[i]
		m.pools[i].SetOnTake(func(t task.Task) {
			m.note(t)
			slot.publish(t)
		})
	}
	if cfg.Fabric != nil {
		m.fab = fabric.New(fabric.Config{PEs: cfg.PEs, Parallel: cfg.Mode == Parallel,
			Seed: cfg.Seed, Params: *cfg.Fabric, Counters: cfg.Counters, Obs: cfg.Obs})
		m.fab.SetDeliver(func(pe int, ts []task.Task) {
			// A delivery can re-animate a vertex under a pending deadlock
			// verdict; note it before the batch becomes poppable.
			for _, t := range ts {
				m.note(t)
			}
			m.pools[pe].PushBatch(ts)
		})
	}
	return m
}

// SetWatch arms (or, with nil, clears) the re-animation watch over the task
// flow. While armed, every spawned, delivered, handed-off, popped, and stolen
// task is noted against it. The pop- and steal-side notes run under the pool
// locks — the locks M_T's taskpool snapshot (EachQueued) takes — so for any
// task the snapshot either still sees it queued or the watch already saw it
// leave; the window in which a task is in neither view (popped but not yet
// published as executing) cannot hide a re-animation from the verdict judge.
func (m *Machine) SetWatch(w *Watch) { m.watch.Store(w) }

// note records one task event against the armed watch, if any.
func (m *Machine) note(t task.Task) {
	if w := m.watch.Load(); w != nil {
		w.Note(t)
	}
}

// SetHandler installs the task executor. It must be called exactly once,
// before Start or Step.
func (m *Machine) SetHandler(h Handler) { m.handler = h }

// PEs returns the number of processing elements.
func (m *Machine) PEs() int { return m.cfg.PEs }

// Mode returns the execution mode.
func (m *Machine) Mode() Mode { return m.cfg.Mode }

// Pool returns the task pool of PE i (for the collector's taskpool snapshot,
// expunging, and reprioritization).
func (m *Machine) Pool(i int) *task.Pool { return m.pools[i] }

// PartOf returns the partition owning a vertex. A partition function that
// returns an out-of-range value is broken — silently clamping it to PE 0
// would misclassify local vs remote messages and misroute every task for
// the offending vertex — so PartOf panics instead, naming the vertex and
// the bad partition.
func (m *Machine) PartOf(id graph.VertexID) int {
	p := m.cfg.PartOf(id)
	if p < 0 || p >= m.cfg.PEs {
		panic(fmt.Sprintf("sched: PartOf(v%d) = %d, out of range [0,%d)", id, p, m.cfg.PEs))
	}
	return p
}

// originOf infers the PE a spawn originates on. A task with a source vertex
// originates on the source's partition, whichever PE ran the step that
// spawned it: a thief's spawns for a stolen task come from the task's
// partition, as the home PE's would (handlers set Src to a vertex of the
// running task). It is remote exactly when the source and destination
// partitions differ. A sourceless spawn comes from outside
// the ensemble — the evaluator's root demand, the collector's root marks, a
// PE's self-continuation — and the injecting runtime is co-resident with
// every partition: it can hand the task to the destination pool directly,
// so no fabric hop (and no remote message) is charged. The previous
// convention pinned external spawns to PE 0, which made every M_T cycle pay
// one fabric transit per root on another partition — pure simulation
// artifact, since nothing actually travels between partitions.
func (m *Machine) originOf(t task.Task) int {
	if t.Src != graph.NilVertex {
		return m.PartOf(t.Src)
	}
	return m.PartOf(t.Dst)
}

// Spawn enqueues a task on the PE owning its destination. It corresponds to
// the paper's "spawn f(x)": no waiting is done for the completion of the
// task. A spawn whose origin differs from its destination partition is a
// remote message; with a fabric wired in it transits the network (and is
// counted inflight while in transit), otherwise it lands directly in the
// destination pool.
func (m *Machine) Spawn(t task.Task) {
	m.note(t)
	dst := m.PartOf(t.Dst)
	origin := m.originOf(t)
	remote := origin != dst
	if c := m.cfg.Counters; c != nil {
		if remote {
			c.RemoteMessages.Add(1)
		} else {
			c.LocalMessages.Add(1)
		}
	}
	m.inflight.Add(1)
	if remote && m.fab != nil {
		m.fab.Enqueue(origin, dst, t)
		return
	}
	m.pools[dst].Push(t)
}

// release takes n tasks — executed or expunged, never to be waited for again —
// off the in-flight count and signals quiescence when none is left.
func (m *Machine) release(n int) {
	if n > 0 && m.inflight.Add(int64(-n)) == 0 {
		m.mu.Lock()
		if m.quiet != nil {
			close(m.quiet)
			m.quiet = nil
		}
		m.mu.Unlock()
	}
}

// Inflight returns the number of queued plus executing tasks.
func (m *Machine) Inflight() int64 { return m.inflight.Load() }

// closedChan is what Quiet returns on a machine that is quiescent already.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Quiet returns a channel that is closed once no task is queued, in transit
// or executing: at once if none is now, else when the in-flight count next
// falls to zero. Work spawned from outside the PEs can refill the machine
// in between, so a receiver that needs quiescence to hold re-reads Inflight.
func (m *Machine) Quiet() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.inflight.Load() == 0 {
		return closedChan
	}
	if m.quiet == nil {
		m.quiet = make(chan struct{})
	}
	return m.quiet
}

// WaitSteps blocks until the machine has taken n steps (Steps) or stop is
// closed, and reports whether the count was reached. One waiter at a time;
// parallel mode only.
func (m *Machine) WaitSteps(n uint64, stop <-chan struct{}) bool {
	m.wakeAt.Store(n)
	defer m.wakeAt.Store(0)
	// Each step adds to its counter before it loads wakeAt and then the
	// other counter, so the last step to n either sees wakeAt and sends, or
	// loaded wakeAt before the store, and then these loads see its add.
	for m.Steps() < n {
		select {
		case <-m.wake:
		case <-stop:
			return false
		}
	}
	return true
}

// execute runs one task through the handler, with accounting. pe is the
// executing processing element, whose slot already publishes t (curSlot's
// publish), so a taskpool snapshot (M_T's troot) cannot miss a task that is
// neither queued nor finished; execute retires it, or the last hand-off the
// handler took in its place, when it is done. The hand-offs run inside this
// execution: the record, the execution count and the trace see t alone.
func (m *Machine) execute(pe int, t task.Task) {
	seq := m.execSeq.Add(1) - 1
	if w := m.wakeAt.Load(); w != 0 && seq+1+m.inline.Load() >= w {
		m.wakeUp()
	}
	if c := m.cfg.Counters; c != nil {
		c.TasksExecuted.Add(1)
		switch t.Kind {
		case task.Mark:
			c.MarkTasks.Add(1)
		case task.Return:
			c.ReturnTasks.Add(1)
		default:
			c.ReductionTasks.Add(1)
		}
	}
	tr, traceStart := m.cfg.Obs.Traced(t.Kind.IsReduction(), t.Parent)
	slot := &m.current[pe]
	slot.running = seq + 1
	m.cfg.Obs.TaskStart(pe)
	m.handler.Handle(pe, t)
	ts := m.cfg.Obs.TaskEnd(pe)
	slot.mu.Lock()
	slot.valid = false
	if r := m.rec; r != nil {
		// Under the lock the retire takes anyway, which guards the PE's lane.
		e := entryOf(OpExec, pe, &t)
		e.Seq, e.At = seq, ts
		r.lanes[pe].add(e, r.all)
	}
	slot.mu.Unlock()
	if tr != nil {
		tr.Record(t.Parent, obs.TraceSpan{Span: obs.ExecSpan(seq + 1), Name: t.Kind.String(), Cat: obs.CatExec,
			PE: pe, Start: traceStart, End: obs.Now(), Src: uint64(t.Src), Dst: uint64(t.Dst)})
	}
	m.release(1)
	if fn := m.cfg.AfterExecute; fn != nil {
		fn(seq, pe, t)
	}
}

// Running returns the number (Seq+1) of the execution PE pe is running, for
// the handler running on pe to stamp on what it spawns (task.Task.Parent).
func (m *Machine) Running(pe int) uint64 { return m.current[pe].running }

// HandOff makes t PE pe's pending hand-off: a task of the running task's
// partition (pe's own, unless pe stole the running task) that the handler
// executing on pe runs later in the same execution (TakeHandOff) instead of
// spawning it. A hand-off pays what Spawn pays but
// the pool and the message count: the armed watch notes it, and the slot
// publishes it beside the running task, under the slot lock, so M_T's troot
// snapshot (EachCurrent) sees it from this instant as it would see a queued
// task. One hand-off may be pending on a PE, and the handler must take it
// before it returns.
func (m *Machine) HandOff(pe int, t task.Task) {
	m.note(t)
	s := &m.current[pe]
	s.mu.Lock()
	s.ts[s.cur^1], s.handing = t, true
	s.mu.Unlock()
}

// TakeHandOff makes PE pe's pending hand-off the PE's running task, in
// place, retiring the task that ran before it, and returns a copy of it. The
// handler runs it, and counts it as a step of the execution (AddSteps).
func (m *Machine) TakeHandOff(pe int) task.Task {
	s := &m.current[pe]
	s.mu.Lock()
	s.cur ^= 1
	s.handing = false
	s.mu.Unlock()
	return s.ts[s.cur]
}

// wakeUp wakes WaitSteps's waiter.
func (m *Machine) wakeUp() {
	select {
	case m.wake <- struct{}{}:
	default: // a wake is pending already
	}
}

// Executions returns the number of task executions started so far.
func (m *Machine) Executions() uint64 { return m.execSeq.Load() }

// AddSteps counts n steps a handler ran in place, inside the task it is
// executing, where it could have spawned a task to run each: the reduction
// engine continuing its destination vertex (metrics InlineSteps).
func (m *Machine) AddSteps(n int) {
	inline := m.inline.Add(uint64(n))
	if c := m.cfg.Counters; c != nil {
		c.InlineSteps.Add(int64(n))
	}
	if w := m.wakeAt.Load(); w != 0 && m.execSeq.Load()+inline >= w {
		m.wakeUp()
	}
}

// Steps returns the work the machine has done: one step per task execution
// started plus the steps handlers ran in place (AddSteps). Collection pacing
// and step budgets count it, so a handler that runs the work of several
// tasks in one execution is paced as that many.
func (m *Machine) Steps() uint64 { return m.execSeq.Load() + m.inline.Load() }

// ExecutionsByPE returns each PE's execution count, indexed by PE. The
// benchmark harness derives execution-balance figures from it; unlike the
// observability layer's per-PE counters it is always available. A
// deterministic machine's slots take no lock, so there the caller must be
// the goroutine that steps the machine, or hold it off.
func (m *Machine) ExecutionsByPE() []uint64 {
	out := make([]uint64, len(m.current))
	for i := range m.current {
		s := &m.current[i]
		s.mu.Lock()
		out[i] = s.execs
		s.mu.Unlock()
	}
	return out
}

// Expunge removes queued tasks matching pred from PE pe's pool, keeping
// the in-flight accounting consistent (an expunged task will never execute,
// so it must not be waited for). It returns the number removed.
func (m *Machine) Expunge(pe int, pred func(task.Task) bool) int {
	n := m.pools[pe].Expunge(pred)
	m.release(n)
	return n
}

// EachQueued calls fn for every task queued in any PE's pool as one atomic
// observation: every pool lock is held for the duration (task.EachAcross),
// so a concurrent steal — which holds both affected pool locks — can never
// move a task from a not-yet-scanned pool into an already-scanned one and
// hide it. M_T's taskpool snapshot must use this instead of scanning
// Pool.Each pool by pool: a steal-hidden reduction task leaves its whole
// task-reachable subtree unmarked, and the verdict watch only covers the
// candidate vertices themselves, so the transitive miss would not be vetoed.
func (m *Machine) EachQueued(fn func(task.Task)) {
	task.EachAcross(m.pools, fn)
}

// EachInTransit calls fn for every task currently inside the fabric
// (buffered or on the wire). It is the in-transit complement to
// Pool.Each for M_T's taskpool snapshot; without a fabric it is a no-op.
func (m *Machine) EachInTransit(fn func(task.Task)) {
	if m.fab != nil {
		m.fab.Each(fn)
	}
}

// ExpungeInTransit removes in-transit tasks matching pred from the fabric,
// keeping inflight accounting consistent exactly like Expunge does for
// pooled tasks. It returns the number removed.
func (m *Machine) ExpungeInTransit(pred func(task.Task) bool) int {
	if m.fab == nil {
		return 0
	}
	n := m.fab.Expunge(pred)
	m.release(n)
	return n
}

// InTransit returns the number of tasks in fabric custody (0 without one).
func (m *Machine) InTransit() int64 {
	if m.fab == nil {
		return 0
	}
	return m.fab.Pending()
}

// Fabric returns the fabric New built, or nil.
func (m *Machine) Fabric() *fabric.Fabric { return m.fab }

// EachCurrent calls fn for every task currently being executed by a PE and
// every pending hand-off (none in deterministic mode when called between
// steps), one PE slot at a time, outside the slot's lock.
func (m *Machine) EachCurrent(fn func(task.Task)) {
	for i := range m.current {
		s := &m.current[i]
		s.mu.Lock()
		t, ok := s.ts[s.cur], s.valid
		next, handing := s.ts[s.cur^1], s.handing
		s.mu.Unlock()
		if ok {
			fn(t)
		}
		if handing {
			fn(next)
		}
	}
}

// Step executes one task in deterministic mode, picking a pseudo-random
// non-empty PE. One step is one tick of the fabric's virtual clock, so
// flushes, deliveries, and retransmissions interleave with task execution
// under the same seed; when every pool is empty but messages are in
// transit, the clock fast-forwards to the next fabric event. Step reports
// whether progress was made (false means the machine is quiescent).
func (m *Machine) Step() bool {
	if m.cfg.Mode != Deterministic {
		panic("sched: Step requires Deterministic mode")
	}
	if m.fab != nil {
		m.fab.Tick()
	}
	for {
		nonEmpty := m.stepScratch[:0]
		for i, p := range m.pools {
			if p.Len() > 0 {
				nonEmpty = append(nonEmpty, i)
			}
		}
		if len(nonEmpty) == 0 {
			if m.fab == nil || !m.fab.Advance() {
				return false
			}
			continue
		}
		pe := nonEmpty[m.rng.Intn(len(nonEmpty))]
		var t task.Task
		var ok bool
		if m.cfg.Adversarial {
			t, ok = m.pools[pe].TryPopRandom(m.rng)
		} else {
			t, ok = m.pools[pe].TryPop()
		}
		if !ok {
			return false
		}
		m.execute(pe, t)
		return true
	}
}

// ExecuteMatching pops the first task in PE pe's pool for which pred
// returns true and executes exec through the handler with full accounting.
// It is the schedule replayer's step primitive: instead of the seeded RNG
// choosing (pe, task), a recorded log does. exec is executed verbatim (not
// the pooled copy) so the handler sees exactly the recorded task even if
// restructuring reprioritized the pooled copy in the interim. It reports
// whether a matching task was found; deterministic mode only.
func (m *Machine) ExecuteMatching(pe int, pred func(task.Task) bool, exec task.Task) bool {
	if m.cfg.Mode != Deterministic {
		panic("sched: ExecuteMatching requires Deterministic mode")
	}
	if pe < 0 || pe >= len(m.pools) {
		return false
	}
	// TryPopWhere publishes nothing: the slot shows exec, the task the log
	// names, not the pooled copy, and the watch notes it. Its causal word is
	// the replay's own, the pooled copy's.
	q, ok := m.pools[pe].TryPopWhere(pred)
	if !ok {
		return false
	}
	exec.Parent = q.Parent
	m.note(exec)
	m.current[pe].publish(exec)
	m.execute(pe, exec)
	return true
}

// RunUntil executes tasks on the deterministic machine until pred returns
// true or the machine quiesces or max steps (Steps) elapse; it returns the
// number of steps taken. A max of 0 means no limit.
func (m *Machine) RunUntil(pred func() bool, max int) int {
	start := m.Steps()
	for (max == 0 || m.Steps()-start < uint64(max)) && !pred() {
		if !m.Step() {
			break
		}
	}
	return int(m.Steps() - start)
}

// RunToQuiescence executes tasks on the deterministic machine until no
// tasks remain or max steps (Steps) elapse (0 = no limit); it returns the
// steps taken and whether quiescence was reached.
func (m *Machine) RunToQuiescence(max int) (int, bool) {
	start := m.Steps()
	for max == 0 || m.Steps()-start < uint64(max) {
		if !m.Step() {
			return int(m.Steps() - start), true
		}
	}
	return int(m.Steps() - start), m.Inflight() == 0
}

// Start launches the PE goroutines in parallel mode.
func (m *Machine) Start() {
	if m.cfg.Mode != Parallel {
		panic("sched: Start requires Parallel mode")
	}
	m.mu.Lock()
	if m.running {
		m.mu.Unlock()
		return
	}
	m.running = true
	m.mu.Unlock()

	if m.fab != nil {
		m.fab.Start()
	}
	for i := range m.pools {
		m.wg.Add(1)
		go m.peLoop(i)
	}
}

// peLoop is PE i's worker loop: its own pool first, then, with stealing on,
// the most-loaded peer, then a timed park on its own pool with backoff. The
// park must be timed when stealing: a push only wakes the owning pool's
// waiter, so a PE blocked for good on its pool would never notice a peer's
// queue growing with partition-local work — exactly the hot-partition
// pattern (fib's spine on one partition) that stealing exists to flatten.
// The PE leaves when its pool is closed.
func (m *Machine) peLoop(i int) {
	defer m.wg.Done()
	pool := m.pools[i]
	park := parkMin
	for {
		t, ok := pool.TryPop()
		if !ok && m.cfg.Steal && m.stealFor(i) {
			t, ok = pool.TryPop()
		}
		if !ok {
			if c := m.cfg.Counters; c != nil {
				c.IdlePolls.Add(1)
			}
			// About to park: close the open execution-batch span so the trace
			// shows the busy interval ending here.
			m.cfg.Obs.PEIdle(i)
			var closed bool
			t, ok, closed = pool.PopWaitFor(park)
			if closed {
				return
			}
			if !ok {
				park = min(2*park, parkMax)
				continue
			}
		}
		park = parkMin
		m.execute(i, t)
	}
}

// Park pacing: an idle PE re-scans its pool (and, stealing, its peers) after
// parking for park, doubling from parkMin to parkMax while nothing
// turns up so a genuinely quiescent machine does not spin.
const (
	parkMin = 50 * time.Microsecond
	parkMax = 2 * time.Millisecond
	// stealBatch caps the number of tasks one steal moves.
	stealBatch = 32
)

// stealFor moves a batch of tasks from the most-loaded peer's pool into PE
// pe's, reporting whether anything was stolen. Victims need at least two
// queued tasks (taking an owner's only task just migrates latency), and a
// steal takes at most half the victim's queue, capped at stealBatch.
func (m *Machine) stealFor(pe int) bool {
	victim, best := -1, 1
	for j := range m.pools {
		if j == pe {
			continue
		}
		if n := m.pools[j].Len(); n > best {
			victim, best = j, n
		}
	}
	if victim < 0 {
		return false
	}
	batch := min(best/2, stealBatch)
	// A steal is a pop as far as a pending deadlock verdict is concerned, and
	// for a sampled evaluation's task a causal hop worth an annotation: it
	// explains why the task's remaining queue wait happened on the thief's
	// pool.
	o := m.cfg.Obs
	n := m.pools[victim].StealInto(m.pools[pe], batch, func(t task.Task) {
		m.note(t)
		if tr, now := o.Traced(t.Kind.IsReduction(), t.Parent); tr != nil {
			tr.Record(t.Parent, obs.TraceSpan{Name: "steal", Cat: obs.CatSteal, PE: pe, Start: now, End: now,
				N: int64(victim), Dst: uint64(t.Dst), Note: fmt.Sprintf("victim=%d thief=%d", victim, pe)})
		}
	})
	if n == 0 {
		return false
	}
	if c := m.cfg.Counters; c != nil {
		c.Steals.Add(1)
		c.StolenTasks.Add(int64(n))
	}
	return true
}

// Stop shuts the PE goroutines down and waits for them to exit. Each PE
// finishes the task it is executing and leaves at its next pop; what is
// still queued is abandoned, not run — a divergent evaluation would refill
// its pool for ever — and expunged once every PE has left, so Inflight is
// then 0.
func (m *Machine) Stop() {
	m.mu.Lock()
	if !m.running {
		m.mu.Unlock()
		return
	}
	m.running = false
	m.mu.Unlock()
	// The pools close first, so that no PE pops what the fabric's Close
	// delivers into them: a woken PE could otherwise win the race to it.
	for _, p := range m.pools {
		p.Close()
	}
	if m.fab != nil {
		// Close empties the fabric's custody into the pools; post-close
		// Enqueues bypass the network entirely.
		m.fab.Close()
	}
	m.wg.Wait()
	for i := range m.pools {
		m.Expunge(i, func(task.Task) bool { return true })
	}
}

// WaitQuiescent blocks until no tasks are queued or executing and reports
// whether quiescence was reached. In parallel mode it blocks (and always
// returns true); in deterministic mode nothing executes unless the caller
// pumps the machine, so blocking would deadlock — it instead reports the
// actual current quiescence status without waiting. A false return means
// tasks are still queued: use RunToQuiescence to drain them. Note that
// quiescence is only stable if nothing else (e.g. a collector goroutine)
// spawns new tasks.
func (m *Machine) WaitQuiescent() bool {
	if m.cfg.Mode == Deterministic {
		return m.inflight.Load() == 0
	}
	for m.inflight.Load() != 0 {
		<-m.Quiet()
	}
	return true
}
