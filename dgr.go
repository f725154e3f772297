// Package dgr is a distributed graph-reduction runtime with decentralized
// concurrent garbage collection, deadlock detection, and dynamic task
// management — a full implementation of Paul Hudak's "Distributed Task and
// Memory Management" (PODC 1983).
//
// A Machine bundles the computation-graph store, N processing elements,
// the reduction engine, and the mark/restructure collector. Programs in
// the small functional language are compiled to Turner-style combinator
// graphs and reduced demand-driven across the PEs, while the collector's
// M_R and M_T marking processes run concurrently with the mutation,
// reclaiming garbage (including cycles), expunging irrelevant speculative
// tasks, reprioritizing task pools, and reporting deadlocked vertices.
//
//	m := dgr.New(dgr.Options{PEs: 4})
//	defer m.Close()
//	v, err := m.Eval(`let fib n = if n < 2 then n else fib (n-1) + fib (n-2) in fib 20`)
package dgr

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dgr/internal/check"
	"dgr/internal/core"
	"dgr/internal/fabric"
	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/lang"
	"dgr/internal/metrics"
	"dgr/internal/obs"
	"dgr/internal/reduce"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// Re-exported result and identifier types.
type (
	// Value is a weak-head-normal-form result.
	Value = reduce.Value
	// NodeID identifies a vertex in the machine's computation graph.
	NodeID = graph.VertexID
	// Stats is a snapshot of the machine's counters.
	Stats = metrics.Snapshot
	// GCReport summarizes one mark/restructure cycle.
	GCReport = core.CycleReport
)

// Engine names accepted by Options.Engine.
const (
	// EngineInterp is the interpreted Turner-combinator backend.
	EngineInterp = "interp"
	// EngineCompiled is the compiled supercombinator backend.
	EngineCompiled = "compiled"
)

// Errors returned by evaluation.
var (
	// ErrDeadlock: the computation can never complete; the collector
	// identified deadlocked vertices (DL_v = R_v − T).
	ErrDeadlock = errors.New("dgr: computation deadlocked")
	// ErrStuck: evaluation quiesced without a value — on a runtime error
	// (a type error, a division by zero), which the returned error wraps, or
	// without any diagnosis (deadlock detection disabled).
	ErrStuck = errors.New("dgr: evaluation stuck")
	// ErrBudget: the step/time budget was exhausted (likely divergence).
	ErrBudget = errors.New("dgr: evaluation budget exhausted")
	// ErrClosed: the machine has been closed.
	ErrClosed = errors.New("dgr: machine closed")
)

// Options configures a Machine. The zero value is usable: one PE,
// deterministic scheduling, no speculation, M_T every 4th cycle.
type Options struct {
	// PEs is the number of processing elements (default 1, at most
	// graph.MaxPartitions: New panics above it).
	PEs int
	// Engine selects the reduction backend: "interp" (default) reduces
	// Turner-combinator graphs one rewrite at a time; "compiled"
	// lambda-lifts programs into supercombinators whose bodies execute as
	// compiled instruction sequences (internal/gm), building each result
	// subgraph in one task execution. Both backends share the vertex-level
	// args/req-args discipline, so marking, deadlock detection, and the
	// invariant checker behave identically.
	Engine string
	// Parallel runs one goroutine per PE plus a collection loop driven by
	// GCInterval; otherwise the machine is deterministic (seeded) and driven
	// by Eval.
	Parallel bool
	// Seed drives deterministic scheduling.
	Seed int64
	// SpeculativeIf eagerly evaluates both if branches (§3.2).
	SpeculativeIf bool
	// MTEvery runs deadlock detection every k-th GC cycle (default 4;
	// 0 disables M_T).
	MTEvery int
	// GCInterval is how many steps, reduction and marking, run between
	// collector cycles (default 20000): a seeded Eval pumps that many and then
	// runs a cycle; a parallel machine's collection loop runs one every
	// GCInterval steps its PEs take, evaluation in progress or not. A step is
	// a task execution or a reduction step a task ran in place, a
	// continuation or a hand-off (Stats InlineSteps).
	GCInterval int
	// MaxSteps bounds one deterministic Eval, in steps as GCInterval counts
	// them (default 200 million).
	MaxSteps int
	// Timeout bounds one parallel Eval (default 30s).
	Timeout time.Duration
	// Fabric, when non-nil, routes every cross-partition spawn through a
	// simulated inter-PE network with batching, latency, loss, and
	// at-least-once redelivery instead of pushing directly into the
	// destination pool. Its fields tune the network, and &fabric.Params{} is
	// the fabric with its defaults. The type is internal: the fabric is a
	// simulation for this module's own tools and tests.
	Fabric *fabric.Params

	// Obs enables the observability layer (internal/obs): one event log
	// holding collector phases, per-PE execution batches, fabric flights and
	// the collector / fabric / checker events; per-PE busy-time counters; the
	// flight view of the execution record, each PE's last executions; and
	// the exposition methods that read them and the live machine
	// (WriteSpansJSONL, WriteFlightJSONL, WritePrometheus,
	// WriteSnapshotJSON). It starts no goroutine. With Obs, TraceRate and
	// TraceSink all unset, instrumented hot paths pay a single pointer test
	// and schedules are bit-identical to an uninstrumented build.
	Obs bool

	// TraceRate enables causal task-lineage tracing: each Eval is
	// head-sampled at this rate (1.0 = every request), and a sampled
	// evaluation's causal history — an exec span per reduction execution,
	// named by its number and parented on its spawner's, the steals and
	// fabric hops that delayed one, collector-phase overlap — is recorded in
	// the event log for assembly and critical-path analysis (WriteTracesJSON,
	// `dgr-trace analyze`). 0 with a nil TraceSink disables tracing.
	// Independent of Obs: tracing alone skips the per-task execution
	// accounting.
	TraceRate float64
	// TraceSink, when non-nil, is the event log the machine writes to,
	// shared with its owner instead of a private one — the serving layer
	// pools machines behind one log so a request's spans land together
	// whichever machine served it, and a caller wanting a larger ring than
	// the default passes its own. Implies tracing; sampling decisions are
	// then the owner's (originate contexts via EvalTraced).
	TraceSink *obs.TraceSink

	// CheckEvery, when positive, arms the invariant checker: marking
	// invariants (Figure 4-2), inflight conservation, band consistency, and
	// mt-cnt underflow are asserted at every k-th task execution, at every
	// cycle end and at quiescence. Inspect results with CheckErr /
	// CheckViolations.
	CheckEvery int
	// RecordSchedule keeps the whole execution record (of which Obs keeps
	// each PE's tail) for deterministic replay: every (pe, task) execution,
	// mark or return a drain took in, and collector phase start. Retrieve it
	// with ScheduleEvents / WriteScheduleJSONL; ReplaySchedule re-drives it.
	RecordSchedule bool
	// Stress, when non-nil, puts the machine under test stress: a random
	// pop order, stealing off, or an injected marking fault (see
	// check.Stress). The type is internal: only this module's sweep command
	// and tests set it.
	Stress *check.Stress
}

func (o Options) withDefaults() Options {
	if o.PEs < 1 {
		o.PEs = 1
	}
	if o.Engine == "" {
		o.Engine = EngineInterp
	}
	if o.MTEvery == 0 {
		o.MTEvery = 4
	} else if o.MTEvery < 0 {
		o.MTEvery = 0
	}
	if o.GCInterval <= 0 {
		o.GCInterval = 20000
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 200_000_000
	}
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

// Machine is a distributed graph-reduction machine.
type Machine struct {
	opts      Options
	store     *graph.Store
	mach      *sched.Machine
	engine    *reduce.Engine
	prog      *gm.Program
	collector *core.Collector
	counters  *metrics.Counters
	checker   *check.Checker
	obs       *obs.Obs
	// closed is atomic so a machine pool (internal/serve) can race Close
	// against exposition reads without a data race; the first Close wins.
	closed atomic.Bool
	// closing is closed by Close; a parallel evaluation waits on it. Seeded
	// machines, whose evaluations run on the caller's goroutine, have none.
	closing chan struct{}
	// owner is a seeded machine's one lock on its graph, whose vertices take
	// none of their own (graph.Config.Serial): held by an evaluation across each
	// collector interval, and by every other entry point that touches a
	// vertex, so a reader on another goroutine waits at most one interval and
	// sees the graph as an interval left it. lockOwner and unlockOwner take
	// it; a parallel machine's vertices keep their locks, and it is unused.
	owner sync.Mutex
}

// lockOwner takes a seeded machine's owner lock (see Machine.owner).
func (m *Machine) lockOwner() {
	if !m.opts.Parallel {
		m.owner.Lock()
	}
}

// unlockOwner releases what lockOwner took.
func (m *Machine) unlockOwner() {
	if !m.opts.Parallel {
		m.owner.Unlock()
	}
}

// New builds a machine. A parallel machine starts its PEs and its collection
// loop immediately; Close must be called to stop them.
func New(opts Options) *Machine {
	opts = opts.withDefaults()
	counters := &metrics.Counters{}
	store := graph.NewStore(graph.Config{
		Partitions: opts.PEs,
		// A seeded machine runs one task at a time, and its owner lock
		// fences everything else that touches a vertex.
		Serial: !opts.Parallel,
	})
	mode := sched.Deterministic
	if opts.Parallel {
		mode = sched.Parallel
	}
	// The observability handle is threaded through every layer that records:
	// scheduler spawns/execs/steals, fabric lifecycle and hops, collector
	// phases, the checker.
	var ob *obs.Obs
	if opts.Obs || opts.TraceSink != nil || opts.TraceRate > 0 {
		ob = obs.New(obs.Options{
			PEs:       opts.PEs,
			Parallel:  opts.Parallel,
			Log:       opts.TraceSink,
			TraceRate: opts.TraceRate,
			Exec:      opts.Obs,
		})
	}
	// The checker hooks into the scheduler, but needs the machine (and
	// marker) that sched.New builds — so the hook closes over a variable
	// assigned below, before any task can execute (deterministic machines run
	// nothing during New; parallel machines Start last).
	var checker *check.Checker
	var stress check.Stress
	if opts.Stress != nil {
		stress = *opts.Stress
	}
	schedCfg := sched.Config{
		PEs:         opts.PEs,
		Mode:        mode,
		Seed:        opts.Seed,
		Adversarial: stress.Adversarial,
		Steal:       opts.Parallel && !stress.DisableSteal,
		PartOf:      store.PartitionOf,
		Counters:    counters,
		Fabric:      opts.Fabric,
		Obs:         ob,
	}
	if opts.CheckEvery > 0 {
		schedCfg.AfterExecute = func(seq uint64, pe int, t task.Task) {
			checker.AfterExecute(seq, pe, t)
		}
	}
	mach := sched.New(schedCfg)
	if opts.RecordSchedule || opts.Obs {
		mach.SetRecord(opts.RecordSchedule)
	}
	marker := core.NewMarker(store, mach, counters)
	if stress.FaultSkipMark > 0 {
		marker.SetFaultSkipMark(stress.FaultSkipMark)
	}
	if opts.CheckEvery > 0 {
		checker = &check.Checker{
			Store: store, Marker: marker, Mach: mach,
			Counters: counters, Obs: ob,
			Every: uint64(opts.CheckEvery), Parallel: opts.Parallel,
		}
	}
	mut := core.NewMutator(store, marker, mach, counters)
	var prog *gm.Program
	if opts.Engine == EngineCompiled {
		prog = gm.NewProgram()
	}
	engine := reduce.New(store, mach, mut, reduce.Config{
		SpeculativeIf: opts.SpeculativeIf,
		Prog:          prog,
		Counters:      counters,
	})
	var collector *core.Collector // late-bound, as the checker hooks are
	collCfg := core.CollectorConfig{
		MTEvery: opts.MTEvery,
		Obs:     ob,
		OnDeadlock: func(ids []graph.VertexID) {
			// Footnote 5: resolve pending is-bottom probes that are
			// themselves deadlocked, and un-record them (they now have a
			// value — deliberate non-monotonicity).
			if resolved := engine.ResolveBottomProbes(ids); len(resolved) > 0 {
				collector.Forget(resolved)
			}
		},
	}
	if checker != nil {
		collCfg.AfterCycle = checker.AtCycleEnd
		collCfg.AfterPhase = checker.AtPhaseEnd
	}
	mach.SetHandler(core.NewDispatcher(marker, engine))
	collector = core.NewCollector(store, marker, mach, counters, collCfg)
	if checker != nil {
		// Late binding, as above: the checker's confirmed-verdict invariant
		// reads the collector, which needs the machine the checker hooks.
		checker.Coll = collector
	}
	m := &Machine{
		opts: opts, store: store, mach: mach,
		engine: engine, prog: prog, collector: collector, counters: counters,
		checker: checker, obs: ob,
	}
	if opts.Parallel {
		m.closing = make(chan struct{})
		mach.Start()
		collector.Start(opts.GCInterval)
	}
	return m
}

// Close stops the PEs and the collector of a parallel machine. It is
// idempotent (and safe to race from multiple goroutines: one closer wins,
// the rest return immediately).
func (m *Machine) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	if m.opts.Parallel {
		// An evaluation in progress returns ErrClosed now, not when the
		// machine under it has stopped. A verdict cycle it is running is
		// waited out by Stop, and none starts after.
		close(m.closing)
		m.collector.Stop()
		if m.checker != nil {
			// With the collector stopped and the PEs idle (if the run
			// completed), this is the parallel machine's one stable point
			// for the full quiescence checks; the checker skips, rather
			// than fails, if tasks are still in flight.
			m.checker.AtQuiescence()
		}
		// What is still queued is abandoned, not run: a divergent evaluation
		// (or speculation no collector expunges now) would never drain. Stop
		// also closes the fabric, emptying its custody into the pools first.
		m.mach.Stop()
	} else if f := m.mach.Fabric(); f != nil {
		f.Close()
	}
	// After Stop/wg.Wait (parallel) or with nothing executing
	// (deterministic), closing obs may safely flush open batch spans.
	m.obs.Close()
}

// Compile translates a program to a reducible graph and returns its root:
// a Turner-combinator graph under the interpreted engine, a
// supercombinator-calling graph (with bodies registered in the machine's
// gm.Program) under the compiled engine.
func (m *Machine) Compile(src string) (NodeID, error) {
	m.lockOwner()
	defer m.unlockOwner()
	return m.compile(src)
}

// compile is Compile under the owner lock, which the caller holds.
func (m *Machine) compile(src string) (NodeID, error) {
	if m.closed.Load() {
		return 0, ErrClosed
	}
	var v *graph.Vertex
	var err error
	if m.prog != nil {
		v, err = lang.CompileSupers(m.store, m.prog, src)
	} else {
		v, err = lang.CompileString(m.store, src)
	}
	if err != nil {
		return 0, err
	}
	return v.ID, nil
}

// compileRooted compiles a program and makes its graph the collector's
// root. The pair is fenced against a parallel machine's collection loop: a
// cycle that started from a previous program's root mid-compile would
// otherwise sweep the fresh, not-yet-rooted graph on the next cycle.
func (m *Machine) compileRooted(src string) (NodeID, error) {
	m.lockOwner()
	defer m.unlockOwner()
	m.collector.Pause()
	defer m.collector.Resume()
	root, err := m.compile(src)
	if err == nil {
		m.collector.SetRoot(root)
	}
	return root, err
}

// Eval compiles and evaluates a program to WHNF.
func (m *Machine) Eval(src string) (Value, error) {
	root, err := m.compileRooted(src)
	if err != nil {
		return Value{}, err
	}
	return m.EvalNode(root)
}

// EvalNode evaluates an existing graph node to WHNF, running the collector
// alongside the reduction. With lineage tracing on, the evaluation is
// head-sampled at Options.TraceRate and, when chosen, originates its own
// trace.
func (m *Machine) EvalNode(root NodeID) (Value, error) {
	return m.evalNodeTraced(root, m.sampleTrace(), 0)
}

// sampleTrace makes an evaluation's head-sampling decision: a new trace if
// lineage tracing is on and chooses it, else 0.
func (m *Machine) sampleTrace() uint64 {
	if s := m.obs.Lineage(); s.Sample() {
		return s.NewTrace()
	}
	return 0
}

// evalNodeTraced evaluates root to WHNF under an externally originated
// trace context: the evaluation envelope is recorded as an "eval" span with
// the given parent (the serving layer passes its request span), and while it
// runs the obs handle holds it (obs.EvalTrace), so the scheduler and the
// fabric record the spans of its executions. A zero trace runs untraced; the
// sampling decision belongs to the caller.
func (m *Machine) evalNodeTraced(root NodeID, tr, parent uint64) (Value, error) {
	if m.closed.Load() {
		return Value{}, ErrClosed
	}
	m.collector.SetRoot(root)
	m.lockOwner()
	et := m.obs.BeginEval(tr, parent, m.mach.Executions()+1)
	ch := m.engine.Demand(root)
	m.unlockOwner()
	v, err := m.drive(ch)
	if err != nil {
		// Nothing will read ch: the root stops being awaited.
		m.engine.Withdraw(root, ch)
	}
	m.obs.EndEval(et)
	if err != nil && (errors.Is(err, ErrStuck) || errors.Is(err, ErrDeadlock)) {
		// Failures flip the log sticky so everything after is traced.
		m.obs.Lineage().Force()
	}
	return v, err
}

// reading is what an evaluation is judged by: the value, once delivered, else
// the machine as the collector cycle that just closed left it — a close has
// none of the cycle's own mark and return tasks in flight, and only a close
// changes DL_v, GAR and the expunged tasks (DESIGN §4, "One driver").
type reading struct {
	value      Value
	delivered  bool
	quiescent  bool  // no task queued, in transit or executing
	deadlocked int   // confirmed-deadlocked vertices
	terminal   bool  // some, on a machine quiescent with them
	reductions int64 // reduction tasks executed so far
}

// readClose is the reading rep's close took under the cycle lock, so a cycle
// that starts after cannot blur it. Reductions are counted on return: on a
// machine quiescent at the close none run until this evaluation spawns again,
// and a busy machine's count patience does not read.
func (m *Machine) readClose(rep GCReport) reading {
	return reading{
		quiescent:  rep.Quiescent,
		deadlocked: rep.Confirmed,
		terminal:   rep.Confirmed > 0 && rep.Quiescent,
		reductions: m.counters.ReductionTasks.Load(),
	}
}

// evaluation is what one evaluation has spent: steps or time, and patience.
type evaluation struct {
	steps    int              // seeded: steps taken, against Options.MaxSteps
	overrun  int              // seeded: steps the last advance ran past its interval
	deadline <-chan time.Time // parallel: Options.Timeout
	quiet    int              // quiet closes in a row (quietCycles)
	last     reading          // the previous close's reading
}

// drive is the one loop every evaluation runs: advance to the close of the
// next collector cycle or to the value, apply the outcome rule, charge
// patience. ch is the root demand's channel. A seeded machine's owner lock is
// held across each advance, and released between them. A parallel evaluation
// that has its value first runs the collection loop's cycle if its tasks made
// one due and the loop's goroutine has not yet had a CPU to run it: the heap
// an evaluation leaves is bounded by the count, not by the host's scheduler.
func (m *Machine) drive(ch <-chan Value) (Value, error) {
	var e evaluation
	for {
		m.lockOwner()
		r, err := m.advance(ch, &e)
		m.unlockOwner()
		if err != nil {
			return Value{}, err
		}
		if v, done, err := m.settle(r); done {
			if r.delivered && m.opts.Parallel {
				m.collector.RunDue()
			}
			return v, err
		}
		// Quiescent without a value or a diagnosis: possibly waiting on tasks
		// the collector just expunged, or on a verdict still to be confirmed.
		if e.quiet = quietCycles(e.quiet, e.last, r); e.quiet >= maxQuietCycles(m.opts.MTEvery) {
			return Value{}, ErrStuck
		}
		e.last = r
	}
}

// advance takes the evaluation to the next instant its outcome can change:
// the value is delivered, or a collector cycle closes. A seeded machine runs
// GCInterval tasks on this goroutine, or fewer if it goes quiet; a parallel
// machine, whose PEs and collection loop run on theirs, is waited on until it
// goes quiet. Either way this goroutine then runs the next cycle and is judged
// by its close. The errors are the ends no reading decides.
func (m *Machine) advance(ch <-chan Value, e *evaluation) (r reading, err error) {
	if !m.opts.Parallel {
		if e.steps >= m.opts.MaxSteps {
			return r, ErrBudget
		}
		// A task ends past the interval when its last steps run in place;
		// the next interval is that much shorter, so cycles stay on the
		// GCInterval grid of the evaluation's steps.
		n := max(m.opts.GCInterval-e.overrun, 1)
		ran := m.mach.RunUntil(func() bool { return len(ch) > 0 }, n)
		e.overrun = max(ran-n, 0)
		e.steps += ran
	} else if v, delivered, err := m.waitQuiet(ch, e); delivered || err != nil {
		return reading{value: v, delivered: delivered}, err
	}
	if len(ch) == 0 {
		// The cycle's marking pump interleaves reduction, so the value
		// may be delivered mid-cycle.
		r = m.readClose(m.collector.RunCycle())
	}
	if !m.opts.Parallel {
		// A safe point, which a parallel machine's running PEs never give.
		if m.checker != nil && len(ch) == 0 && m.mach.Inflight() == 0 {
			m.checker.AtQuiescence()
		}
		// Possibly the evaluation's last: close open execution batches so
		// post-eval exposition reads exact totals. (A cycle's end has closed
		// them already; this catches a value that came without one.)
		m.obs.FlushBatches()
	}
	// Quiescence was read before the channel is: the task that delivers the
	// value is in flight until it returns, so a machine seen quiescent and
	// then a channel seen empty means no value is coming.
	select {
	case r.value = <-ch:
		r.delivered = true
	default:
	}
	return r, nil
}

// waitQuiet is a parallel evaluation's wait, on four things: the value, its
// machine going quiet (neither delivered nor an error), the deadline, Close.
func (m *Machine) waitQuiet(ch <-chan Value, e *evaluation) (v Value, delivered bool, err error) {
	if e.deadline == nil {
		e.deadline = time.After(m.opts.Timeout)
	}
	// A stopped collector's cycles are empty: do not run one for nothing
	// when Close's channel and the quiet one are both ready.
	if m.closed.Load() {
		return v, false, ErrClosed
	}
	select {
	case v = <-ch:
		return v, true, nil
	case <-m.mach.Quiet():
		return v, false, nil
	case <-e.deadline:
		return v, false, ErrBudget
	case <-m.closing:
		return v, false, ErrClosed
	}
}

// settle is the one outcome rule (README, "What Eval returns"). A delivered
// value is the outcome whatever else happened: a runtime error raised by work
// the value did not need is not the evaluation's failure, and a deadlocked
// subterm does not block a completed root. Without a value, a quiescent
// machine is diagnosed: by this evaluation's first runtime error (M_T would
// report the vertex stuck on it deadlocked; the error is the better
// diagnosis), else by a confirmed deadlock. done is false while neither
// applies; patience and budget decide from there.
func (m *Machine) settle(r reading) (v Value, done bool, err error) {
	if r.delivered || !r.quiescent {
		return r.value, r.delivered, nil
	}
	if errs := m.engine.Errors(); len(errs) > 0 {
		return Value{}, true, fmt.Errorf("%w: %v", ErrStuck, errs[0])
	}
	if r.terminal {
		return Value{}, true, fmt.Errorf("%w: %d vertices", ErrDeadlock, r.deadlocked)
	}
	return Value{}, false, nil
}

// quietCycles is the one patience rule: n closed cycles in a row had left the
// machine quiescent at last's count of executed reduction tasks; the run after
// a cycle closed on r. A machine not quiescent, or that has reduced since, is
// alive, and the run starts over.
func quietCycles(n int, last, r reading) int {
	switch {
	case !r.quiescent:
		return 0
	case r.reductions != last.reductions:
		return 1
	}
	return n + 1
}

// maxQuietCycles is the patience an evaluation has: quiet cycles enough for
// two M_T phases. The first can only nominate a deadlock candidate, the second
// confirms it (two-phase verdict), so concluding ErrStuck any earlier would
// shadow a real deadlock still awaiting confirmation.
func maxQuietCycles(mtEvery int) int {
	if mtEvery <= 0 {
		return 2
	}
	return 2*mtEvery + 1
}

// EvalTraced compiles and evaluates a program under an externally
// originated trace context (see evalNodeTraced); the serving layer calls
// it with each sampled request's trace and request span.
func (m *Machine) EvalTraced(src string, tr, parent uint64) (Value, error) {
	root, err := m.compileRooted(src)
	if err != nil {
		return Value{}, err
	}
	return m.evalNodeTraced(root, tr, parent)
}

// EvalList evaluates a program expected to yield a (finite) list, forcing
// every element. Like EvalNode it is head-sampled, once per call: when
// chosen, the whole walk is one trace.
func (m *Machine) EvalList(src string) ([]Value, error) {
	return m.EvalListTraced(src, m.sampleTrace(), 0)
}

// EvalListTraced is EvalList under an externally originated trace context:
// the walk is recorded as one "eval" envelope span under parent, and the
// spine's and every element's evaluation as an "eval" span under it. Each of
// those evaluations re-roots the collector at the cell or element it forces,
// so the list's own root stays pinned for the whole walk: a cycle during one
// element's evaluation must not sweep the cells and elements the walk has yet
// to reach.
func (m *Machine) EvalListTraced(src string, tr, parent uint64) ([]Value, error) {
	root, err := m.compileRooted(src)
	if err != nil {
		return nil, err
	}
	m.collector.Pin(root)
	defer m.collector.Pin(graph.NilVertex)
	var walk uint64
	if et := m.obs.BeginEval(tr, parent, m.mach.Executions()+1); et != nil {
		walk = et.Span
		defer m.obs.EndEval(et)
	}
	var out []Value
	cur := root
	for {
		v, err := m.evalNodeTraced(cur, tr, walk)
		if err != nil {
			return out, err
		}
		switch v.Kind {
		case graph.KindNil:
			return out, nil
		case graph.KindCons:
			m.lockOwner()
			h, t, ok := m.engine.ConsParts(v.ID)
			m.unlockOwner()
			if !ok {
				return out, fmt.Errorf("dgr: malformed cons at v%d", v.ID)
			}
			hv, err := m.evalNodeTraced(h, tr, walk)
			if err != nil {
				return out, err
			}
			out = append(out, hv)
			cur = t
		default:
			return out, fmt.Errorf("dgr: expected list, got %s", v.Kind)
		}
	}
}

// RunGC runs one explicit mark/restructure cycle. On a parallel machine it
// takes its turn with the collection loop's cycles, which run only while the
// PEs execute: an idle machine collects nothing unless asked.
func (m *Machine) RunGC() GCReport {
	m.lockOwner()
	defer m.unlockOwner()
	return m.collector.RunCycle()
}

// Pump executes tasks on a deterministic machine for up to max steps (as
// GCInterval counts them) without running the collector, returning the
// steps taken. It is a low-level hook for harnesses that orchestrate GC
// themselves.
func (m *Machine) Pump(max int) int {
	m.lockOwner()
	defer m.unlockOwner()
	return m.mach.RunUntil(func() bool { return false }, max)
}

// Quiescent reports whether no tasks are queued or executing.
func (m *Machine) Quiescent() bool { return m.mach.Inflight() == 0 }

// DemandNode spawns the initial <-,root> task and returns the channel that
// will receive the WHNF value — without driving the machine (harness hook;
// normal callers use EvalNode).
func (m *Machine) DemandNode(root NodeID) <-chan Value {
	m.lockOwner()
	defer m.unlockOwner()
	m.collector.SetRoot(root)
	return m.engine.Demand(root)
}

// Stats snapshots the machine's counters.
func (m *Machine) Stats() Stats { return m.counters.Snapshot() }

// TraceSink returns the event log lineage traces are recorded into (shared
// or private), or nil when lineage tracing is off.
func (m *Machine) TraceSink() *obs.TraceSink { return m.obs.Lineage() }

// WriteTracesJSON writes the retained lineage traces — each assembled back
// into its spawn DAG with critical-path analysis and per-category blame —
// as an obs.TraceDoc. It errors unless lineage tracing is enabled (set
// Options.TraceRate or Options.TraceSink).
func (m *Machine) WriteTracesJSON(w io.Writer) error {
	s := m.obs.Lineage()
	if s == nil {
		return errors.New("dgr: lineage tracing disabled (set Options.TraceRate or Options.TraceSink)")
	}
	return obs.WriteTracesJSON(w, s)
}

// errObsDisabled is what the exposition methods below return on a machine
// with no observability handle. Options.Obs gives it one; so does tracing
// (TraceRate, TraceSink), whose machines answer too, with no executions or
// busy time behind the answer.
var errObsDisabled = errors.New("dgr: observability disabled (set Options.Obs)")

// WriteSpansJSONL writes the retained observation spans (collector phases,
// per-PE execution batches, fabric flights) as chrome://tracing-compatible
// JSON Lines. It errors unless Options.Obs is on.
func (m *Machine) WriteSpansJSONL(w io.Writer) error {
	if m.obs == nil {
		return errObsDisabled
	}
	return m.obs.WriteSpansJSONL(w)
}

// WriteFlightJSONL writes the flight recorder's events (each PE's last
// executions and the collector/fabric activity, timestamp-merged) as JSON
// Lines, and last a "verdicts" row: how far deadlock detection had got
// (verdict_epoch, the confirmed and the pending vertices), the evidence a
// failed Eval leaves. It errors unless the machine has an event log
// (Options.Obs, TraceRate or TraceSink); only Options.Obs adds the
// executions.
func (m *Machine) WriteFlightJSONL(w io.Writer) error {
	if m.obs == nil {
		return errObsDisabled
	}
	enc := json.NewEncoder(w)
	for _, e := range m.obs.FlightEvents(m.flightExecs()) {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		TS        int64    `json:"ts"`
		PE        int      `json:"pe"`
		Kind      string   `json:"kind"`
		Epoch     uint64   `json:"verdict_epoch"`
		Confirmed []NodeID `json:"confirmed,omitempty"`
		Pending   []NodeID `json:"pending,omitempty"`
	}{
		TS: obs.Now(), PE: obs.TIDCollector, Kind: "verdicts",
		Epoch:     m.collector.VerdictEpoch(),
		Confirmed: m.collector.Deadlocked(),
		Pending:   m.collector.PendingDeadlocked(),
	})
}

// flightExecs reads the flight view under the owner lock (see perPE).
func (m *Machine) flightExecs() []obs.FlightEvent {
	m.lockOwner()
	defer m.unlockOwner()
	return m.mach.Flight()
}

// Gauges reads the live-machine gauges: what the exposition and
// snapshot.json print, what a machine pool sums.
func (m *Machine) Gauges() obs.Gauges {
	deadlocked, _ := m.collector.Verdict()
	// Free before Heap: a block is counted in V before any of its ids is
	// free, so Free never reads more than Heap.
	free := m.FreeVertices()
	return obs.Gauges{
		PEs:        m.opts.PEs,
		Heap:       m.store.Len(),
		Free:       free,
		Inflight:   m.mach.Inflight(),
		InTransit:  m.mach.InTransit(),
		Deadlocked: deadlocked,
	}
}

// promData assembles the counters and live gauges for the Prometheus
// exposition.
func (m *Machine) promData() obs.PromData {
	d := obs.PromData{
		Stats:  m.counters.Snapshot(),
		Gauges: m.Gauges(),

		FreePerPart: make([]int, m.opts.PEs),
		PoolBands:   make([][obs.Bands]int, m.opts.PEs),
		ExecsPerPE:  make([]int64, m.opts.PEs),
		BusyNs:      make([]int64, m.opts.PEs),
	}
	execs := m.perPE(d.FreePerPart, d.PoolBands)
	for pe := 0; pe < m.opts.PEs; pe++ {
		// The scheduler's own per-PE counters, not the obs batches: they
		// count every execution (including those before obs batching
		// flushed), which is the balance view stealing is judged by.
		d.ExecsPerPE[pe] = int64(execs[pe])
		d.BusyNs[pe] = m.obs.BusyNs(pe)
	}
	return d
}

// perPE reads each PE's execution count and, into the slices given (either
// may be nil), each partition's free-vertex count and each pool's band
// depths. A seeded machine's pools, PE slots and free-list shards take no
// lock of their own (their owner runs one task at a time), so a reader on
// another goroutine takes the owner lock here, the one place the facade
// reads them.
func (m *Machine) perPE(free []int, bands [][obs.Bands]int) []uint64 {
	m.lockOwner()
	defer m.unlockOwner()
	for pe := range free {
		free[pe] = m.store.FreeCountOf(pe)
	}
	for pe := range bands {
		// BandLens returns [task.NumBands]int; assigning it to an
		// [obs.Bands]int asserts the two constants agree.
		bands[pe] = m.mach.Pool(pe).BandLens()
	}
	return m.mach.ExecutionsByPE()
}

// WritePrometheus renders the machine's counters and live gauges in the
// Prometheus text exposition format. It errors unless Options.Obs is on.
func (m *Machine) WritePrometheus(w io.Writer) error {
	if m.obs == nil {
		return errObsDisabled
	}
	return obs.WritePrometheus(w, m.promData())
}

// WriteSnapshotJSON writes a one-shot JSON digest of the machine: counters,
// graph occupancy, per-PE pool depths, execution counts and busy time, and
// any recorded invariant violations. It errors unless Options.Obs is on.
func (m *Machine) WriteSnapshotJSON(w io.Writer) error {
	if m.obs == nil {
		return errObsDisabled
	}
	out := struct {
		Now int64 `json:"now_ns"`
		obs.PromData
		Parallel   bool   `json:"parallel"`
		Cycles     int64  `json:"cycles"`
		Executions uint64 `json:"executions"`
		// The list, under the key the embedded count would otherwise take.
		Deadlocked []NodeID          `json:"deadlocked,omitempty"`
		Violations []string          `json:"violations,omitempty"`
		FlightLast []obs.FlightEvent `json:"flight_last,omitempty"`
	}{
		Now: m.obs.Now(), PromData: m.promData(), Parallel: m.opts.Parallel,
		Cycles: m.collector.Cycles(), Executions: m.mach.Executions(),
		Deadlocked: m.collector.Deadlocked(), Violations: m.CheckViolations(),
	}
	evs := m.obs.FlightEvents(m.flightExecs())
	out.FlightLast = evs[max(0, len(evs)-16):]
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteGraphDOT renders the current computation graph as Graphviz DOT, with
// the collector's root double-circled and deadlocked vertices highlighted.
// On a seeded machine it is the graph a collector interval left, whenever it
// is taken; a parallel machine's is consistent only while it is quiescent.
// The owner lock is released before w is written to.
func (m *Machine) WriteGraphDOT(w io.Writer) error {
	m.lockOwner()
	hl := make(map[graph.VertexID]string)
	for _, id := range m.collector.Deadlocked() {
		hl[id] = "red"
	}
	snap, root := m.store.Snapshot(), m.collector.Root()
	m.unlockOwner()
	return snap.WriteDOT(w, root, hl)
}

// Root returns the collector's current computation root (the last node
// passed to EvalNode / DemandNode).
func (m *Machine) Root() NodeID { return m.collector.Root() }

// CheckViolations returns the invariant violations recorded so far. It is
// empty unless Options.CheckEvery arms the checker (and, one hopes, even
// then).
func (m *Machine) CheckViolations() []string {
	if m.checker == nil {
		return nil
	}
	return m.checker.Violations()
}

// CheckErr summarizes recorded invariant violations as a single error, nil
// when the run is clean or checking is off.
func (m *Machine) CheckErr() error {
	if m.checker == nil {
		return nil
	}
	return m.checker.Err()
}

// ScheduleEvents returns the recorded schedule, the execution record in
// replay order (sched.Machine.Record). A parallel machine's is a whole run
// once Close has stopped its PEs. It errors unless Options.RecordSchedule
// was set.
func (m *Machine) ScheduleEvents() ([]sched.Entry, error) {
	if !m.opts.RecordSchedule {
		return nil, errors.New("dgr: schedule recording disabled (set Options.RecordSchedule)")
	}
	m.lockOwner() // see flightExecs
	defer m.unlockOwner()
	return m.mach.Record(), nil
}

// WriteScheduleJSONL writes the recorded schedule as JSON Lines, one entry a
// line (check.WriteJSONL). It errors unless Options.RecordSchedule was set.
func (m *Machine) WriteScheduleJSONL(w io.Writer) error {
	entries, err := m.ScheduleEvents()
	if err != nil {
		return err
	}
	return check.WriteJSONL(w, entries)
}

// ReplaySchedule re-drives this machine from a recorded schedule instead of
// the scheduler's own policy: the root demand is spawned, then tasks
// execute in exactly the logged order, with collector cycles at their
// logged positions. The machine must be deterministic, without a fabric,
// freshly built with the same program, seed, and PE count as the recorded
// run. It returns the first divergence as an error; a clean replay of a
// violating run reproduces the violation (see CheckErr) at the same step.
func (m *Machine) ReplaySchedule(root NodeID, entries []sched.Entry) error {
	if m.closed.Load() {
		return ErrClosed
	}
	if m.opts.Parallel {
		return errors.New("dgr: ReplaySchedule requires a deterministic machine")
	}
	if m.opts.Fabric != nil {
		return errors.New("dgr: ReplaySchedule requires a machine without a fabric (the log order subsumes delivery)")
	}
	m.lockOwner()
	defer m.unlockOwner()
	m.collector.SetRoot(root)
	m.engine.Demand(root)
	rp := &check.Replayer{Mach: m.mach, Coll: m.collector}
	return rp.Run(entries)
}

// Deadlocked returns every vertex the collector has identified as
// deadlocked so far, in ascending order.
func (m *Machine) Deadlocked() []NodeID { return m.collector.Deadlocked() }

// RuntimeErrors returns the runtime errors (type errors, division by zero)
// the reduction engine raised during the current — or, between evaluations,
// the latest — evaluation, speculative work included.
func (m *Machine) RuntimeErrors() []error { return m.engine.Errors() }

// ExecsPerPE reports how many tasks each PE has executed so far — the
// execution-balance view work stealing is judged by (a heavily skewed
// distribution with stealing on means the thieves never got traction).
func (m *Machine) ExecsPerPE() []uint64 { return m.perPE(nil, nil) }

// FreeVertices reports |F|, the current size of the free list: the sum of
// the free-list shards, which a seeded machine's owner writes with no lock of
// their own, so it is read under the owner lock (as perPE reads them).
func (m *Machine) FreeVertices() int {
	m.lockOwner()
	defer m.unlockOwner()
	return m.store.FreeCount()
}

// TotalVertices reports |V|.
func (m *Machine) TotalVertices() int { return m.store.Len() }

// Snapshot returns an immutable copy of the current computation graph (for
// analysis and DOT export). A seeded machine's is the graph a collector
// interval left, whenever it is taken; take a parallel machine's while it is
// quiescent for a consistent picture.
func (m *Machine) Snapshot() *graph.Snapshot {
	m.lockOwner()
	defer m.unlockOwner()
	return m.store.Snapshot()
}
