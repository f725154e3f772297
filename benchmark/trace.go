package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"dgr"
	"dgr/internal/gm"
	"dgr/internal/graph"
	"dgr/internal/lang"
	"dgr/internal/task"
)

// span is one record of the traced run. The harness takes every span from
// outside, around a public call into a layer; nothing inside the program is
// switched on. N holds the counts read at the span's two boundaries (their
// difference) and the gauges sampled at its end.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent,omitempty"` // 0: a root
	Op     int              `json:"op,omitempty"`     // spans of one op share its id; 0: not part of an op
	Name   string           `json:"name"`
	Prog   string           `json:"prog,omitempty"`
	Start  int64            `json:"start_ns"` // since the recorder was made
	End    int64            `json:"end_ns"`
	N      map[string]int64 `json:"n,omitempty"`
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	r.spans[id-1].Start = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end(id int) { r.spans[id-1].End = int64(time.Since(r.t0)) }

func (r *recorder) get(id int) *span { return &r.spans[id-1] }

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// layerCounts are the machine counters a traced op records, under the name
// of the layer that does the counted work. The reduction-task count goes to
// the engine in use.
func layerCounts(engine string, d dgr.Stats) map[string]int64 {
	n := map[string]int64{
		"sched.tasks":         d.TasksExecuted,
		"sched.local_msgs":    d.LocalMessages,
		"sched.remote_msgs":   d.RemoteMessages,
		"graph.vertex_allocs": d.Allocations,
		"graph.reclaimed":     d.Reclaimed,
		"core.cycles":         d.Cycles,
		"core.mt_runs":        d.MTRuns,
		"core.mark_tasks":     d.MarkTasks,
		"core.return_tasks":   d.ReturnTasks,
		"core.expunged":       d.Expunged,
	}
	if engine == dgr.EngineCompiled {
		n["gm.reduction_tasks"] = d.ReductionTasks
	} else {
		n["reduce.reduction_tasks"] = d.ReductionTasks
		n["reduce.rewrites"] = d.Rewrites
	}
	return n
}

// target is a machine the traced run drives: the one under test (no prefix)
// or its twin, whose spans are named "twin.". m is nil on the cold workload,
// where every op builds and closes its own machine from opts.
type target struct {
	prefix string
	engine string
	opts   dgr.Options
	m      *dgr.Machine
}

// tracedNew spans dgr.New and records what it allocated.
func (r *recorder) tracedNew(t *target, parent, op int) *dgr.Machine {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.begin(t.prefix+"dgr.New", parent, op)
	m := dgr.New(t.opts)
	r.end(id)
	runtime.ReadMemStats(&after)
	r.get(id).N = map[string]int64{
		"allocs": int64(after.Mallocs - before.Mallocs),
		"bytes":  int64(after.TotalAlloc - before.TotalAlloc),
	}
	return m
}

func (r *recorder) tracedClose(t *target, m *dgr.Machine, parent, op int) {
	id := r.begin(t.prefix+"dgr.Close", parent, op)
	m.Close()
	r.end(id)
}

// tracedOp runs one op as Eval does (Compile, then EvalNode) with a span
// around each public call, and reports whether the outcome is the oracle's.
func (r *recorder) tracedOp(t *target, o *op, parent int) bool {
	r.ops++
	opID := r.ops
	id := r.begin(t.prefix+"op", parent, opID)
	r.get(id).Prog = o.prog
	m := t.m
	if m == nil {
		m = r.tracedNew(t, id, opID)
	}
	s0 := m.Stats()
	c := r.begin(t.prefix+"dgr.Compile", id, opID)
	root, err := m.Compile(o.src)
	r.end(c)
	var v dgr.Value
	if err == nil {
		e := r.begin(t.prefix+"dgr.EvalNode", id, opID)
		v, err = m.EvalNode(root)
		r.end(e)
	}
	n := layerCounts(t.engine, m.Stats().Sub(s0))
	n["graph.store_vertices"] = int64(m.TotalVertices())
	n["graph.live_vertices"] = int64(m.TotalVertices() - m.FreeVertices())
	if t.m == nil {
		r.tracedClose(t, m, id, opID)
	}
	r.end(id)
	if o.want.deadlock {
		n["deadlock"] = 1
	}
	r.get(id).N = n
	return o.matches(v, err)
}

// usage is the process's CPU time and completed Go GC cycles so far.
func usage() (cpuNS, goGC int64, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ru.Utime.Nano() + ru.Stime.Nano(), int64(ms.NumGC), nil
}

// trace is the traced run: the same inputs as the untraced run for a tenth
// of its passes. Each pass runs three times back to back, so that a slow
// spell of the host falls on all three alike: plainly (the reference for
// tracing overhead), with spans, and with spans on a twin machine whose
// in-eval collector never fires. Then come a few passes with an explicit
// collector cycle after each, and the direct probes of single layers.
func trace(w *workload, seed int64, passes int) (r *recorder, attempted, failed int, err error) {
	r = newRecorder()
	ops, err := w.inputs(seed)
	if err != nil {
		return nil, 0, 0, err
	}
	cal, err := newCalibration()
	if err != nil {
		return nil, 0, 0, err
	}
	// The twin differs in one option: no collector cycle fires during an
	// eval (a terminal cycle still gives the deadlock verdicts). Its wall
	// time per reduction task is the engine's cost without the collector,
	// and its distance from the machine under test is the collector's share.
	main := &target{engine: w.engine, opts: w.options(seed)}
	twin := &target{prefix: "twin.", engine: w.engine, opts: w.options(seed)}
	twin.opts.GCInterval = 1 << 30
	b := &bench{w: w, seed: seed, ops: ops}
	setup := r.begin("setup", 0, 0)
	if !w.cold {
		main.m = r.tracedNew(main, setup, 0)
		twin.m = r.tracedNew(twin, setup, 0)
		defer twin.m.Close()
		b.m = main.m
	}
	for i := 0; i < warmupPasses; i++ {
		b.pass()
	}
	r.end(setup)

	plainPass := func() {
		attempted += len(ops)
		failed += b.pass()
	}
	tally := func(ok bool) {
		attempted++
		if !ok {
			failed++
		}
	}
	for p := 0; p < passes; p++ {
		ref := r.begin("ref.pass", 0, 0)
		plainPass()
		r.end(ref)

		cpu0, gc0, err := usage()
		if err != nil {
			return nil, 0, 0, err
		}
		pass := r.begin("pass", 0, 0)
		for i := range ops {
			tally(r.tracedOp(main, &ops[i], pass))
		}
		r.end(pass)
		cpu1, gc1, err := usage()
		if err != nil {
			return nil, 0, 0, err
		}
		r.get(pass).N = map[string]int64{"cpu_ns": cpu1 - cpu0, "go_gc": gc1 - gc0}
		c := r.begin("calibration", 0, 0)
		cal.slice()
		r.end(c)

		pass = r.begin("twin.pass", 0, 0)
		for i := range ops {
			tally(r.tracedOp(twin, &ops[i], pass))
			if twin.m != nil {
				// Collect between evals instead of during them.
				twin.m.RunGC()
			}
		}
		r.end(pass)
	}
	if b.m != nil {
		// One explicit cycle after each of a few more passes: what a cycle
		// costs and reclaims on this heap. They come last, so that the traced
		// passes see the store exactly as the untraced run does.
		for p := 0; p < passes; p++ {
			plainPass()
			gc := r.begin("dgr.RunGC", 0, 0)
			rep := b.m.RunGC()
			r.end(gc)
			r.get(gc).N = map[string]int64{"reclaimed": int64(rep.Reclaimed)}
		}
	}
	if err := r.probes(ops); err != nil {
		return nil, 0, 0, err
	}
	if main.m != nil {
		r.tracedClose(main, main.m, 0, 0)
	}
	hwm, err := peakRSSKB()
	if err != nil {
		return nil, 0, 0, err
	}
	end := r.begin("run.end", 0, 0)
	r.end(end)
	r.get(end).N = map[string]int64{"vm_hwm_kb": hwm}
	return r, attempted, failed, nil
}

const (
	probeRepeats = 5
	probePairs   = 200_000
)

// probes call single layers directly, with no machine around them.
func (r *recorder) probes(ops []op) error {
	cfg := graph.Config{Partitions: 4, Capacity: 1 << 16}
	var store *graph.Store
	for i := 0; i < probeRepeats; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := r.begin("graph.NewStore", 0, 0)
		store = graph.NewStore(cfg)
		r.end(id)
		runtime.ReadMemStats(&after)
		r.get(id).N = map[string]int64{"bytes": int64(after.TotalAlloc - before.TotalAlloc)}
	}

	id := r.begin("graph.AllocRelease", 0, 0)
	for i := 0; i < probePairs; i++ {
		v, err := store.Alloc(i%cfg.Partitions, graph.KindInt, 0)
		if err != nil {
			return err
		}
		store.Release(v)
	}
	r.end(id)
	r.get(id).N = map[string]int64{"pairs": probePairs}

	pool := task.NewPool()
	t := task.Task{Kind: task.Reduce, Dst: 1}
	id = r.begin("task.PushPop", 0, 0)
	for i := 0; i < probePairs; i++ {
		pool.Push(t)
		if _, ok := pool.TryPop(); !ok {
			return fmt.Errorf("task probe: pool empty after push")
		}
	}
	r.end(id)
	r.get(id).N = map[string]int64{"pairs": probePairs}

	// The front end, stage by stage, on every input of the pass. The
	// compile stages emit into the probe store; it is large enough for
	// probeRepeats copies of every program.
	for i := 0; i < probeRepeats; i++ {
		for j := range ops {
			src := ops[j].src
			id := r.begin("lang.Parse", 0, 0)
			e, err := lang.Parse(src)
			r.end(id)
			if err != nil {
				return err
			}
			id = r.begin("lang.CompileString", 0, 0)
			_, err = lang.CompileString(store, src)
			r.end(id)
			if err != nil {
				return err
			}
			id = r.begin("lang.Lift", 0, 0)
			sc, err := lang.Lift(e)
			r.end(id)
			if err != nil {
				return err
			}
			id = r.begin("lang.CompileLifted", 0, 0)
			_, err = lang.CompileLifted(store, gm.NewProgram(), sc)
			r.end(id)
			if err != nil {
				return err
			}
		}
	}
	return nil
}
