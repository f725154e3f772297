package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/sched"
	"dgr/internal/task"
)

// frozenGraph wires n vertices, each on a random partition of the rig, with
// 3n random arcs of every request kind and n/3 random requester entries, and
// draws a few demand tasks whose endpoints are M_T's roots. The graph is a
// function of rng alone, so two rigs of one seed hold the same one.
func frozenGraph(rng *rand.Rand, r *rig, n int) (vs []*graph.Vertex, tasks []task.Task) {
	return frozenGraphOn(rng, r, n, func() int { return rng.Intn(r.mach.PEs()) })
}

// frozenGraphOn is frozenGraph with each vertex on the partition place draws.
func frozenGraphOn(rng *rand.Rand, r *rig, n int, place func() int) (vs []*graph.Vertex, tasks []task.Task) {
	vs = make([]*graph.Vertex, n)
	for i := range vs {
		vs[i] = r.vertexOn(place(), graph.KindApply)
	}
	for i := 0; i < n*3; i++ {
		r.edge(vs[rng.Intn(n)], vs[rng.Intn(n)], graph.ReqKind(rng.Intn(3)))
	}
	for i := 0; i < n/3; i++ {
		r.request(vs[rng.Intn(n)], vs[rng.Intn(n)], graph.ReqKind(1+rng.Intn(2)))
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		tasks = append(tasks, task.Task{
			Kind: task.Demand,
			Src:  vs[rng.Intn(n)].ID,
			Dst:  vs[rng.Intn(n)].ID,
			Req:  graph.ReqVital,
		})
	}
	return vs, tasks
}

// endpointRoots lists the distinct endpoints of tasks, in order: the root set
// an M_T cycle over exactly those tasks starts from.
func endpointRoots(tasks []task.Task) []Root {
	var roots []Root
	seen := map[graph.VertexID]bool{}
	for _, tk := range tasks {
		for _, id := range []graph.VertexID{tk.Src, tk.Dst} {
			if id != graph.NilVertex && !seen[id] {
				seen[id] = true
				roots = append(roots, Root{ID: id})
			}
		}
	}
	return roots
}

// marking is what one M_R and one M_T cycle left on a graph: the R-marked
// vertices with their priorities, and the T-marked ones.
type marking struct {
	prior map[graph.VertexID]uint8
	t     map[graph.VertexID]bool
}

func (r *rig) markBoth(vs []*graph.Vertex, tasks []task.Task) marking {
	r.runCycle(graph.CtxR, Root{ID: vs[0].ID, Prior: graph.PriorVital})
	r.runCycle(graph.CtxT, endpointRoots(tasks)...)
	got := marking{prior: map[graph.VertexID]uint8{}, t: map[graph.VertexID]bool{}}
	epochR, epochT := r.marker.Epoch(graph.CtxR), r.marker.Epoch(graph.CtxT)
	for _, v := range vs {
		v.Lock()
		if st := v.RCtx.StateAt(epochR); st == graph.Marked {
			got.prior[v.ID] = v.RCtx.Prior
		} else if st != graph.Unmarked {
			r.t.Errorf("v%d left %v by a completed M_R", v.ID, st)
		}
		if st := v.TCtx.StateAt(epochT); st == graph.Marked {
			got.t[v.ID] = true
		} else if st != graph.Unmarked {
			r.t.Errorf("v%d left %v by a completed M_T", v.ID, st)
		}
		v.Unlock()
	}
	return got
}

// TestWaveEquivalentToTaskPerArc: a wave is a schedule of the same tasks, so
// on a frozen graph it must leave exactly what one task per arc leaves — the
// same marked sets and the same priorities, in both contexts — and both must
// be the oracle's R, priorities and T. With the fault injector armed the two
// still agree (it picks arcs by (parent, child, epoch), not by call order),
// though no longer with the oracle.
func TestWaveEquivalentToTaskPerArc(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		for _, skip := range []int64{0, 3} {
			var got [2]marking
			for i, budget := range []int{0, waveBudget} {
				rng := rand.New(rand.NewSource(seed))
				r := newRig(t, 1+int(seed%4), seed, seed%8 >= 4)
				r.marker.budget = budget
				r.marker.SetFaultSkipMark(skip)
				vs, tasks := frozenGraph(rng, r, 10+rng.Intn(70))
				oracle := analysis.Analyze(r.store.Snapshot(), vs[0].ID, tasks)
				got[i] = r.markBoth(vs, tasks)
				if skip != 0 {
					continue
				}
				for _, v := range vs {
					if p, marked := got[i].prior[v.ID]; marked != oracle.R[v.ID] || p != oracle.Prior[v.ID] {
						t.Fatalf("seed %d budget %d: v%d R-marked=%v prior=%d, oracle %v prior %d",
							seed, budget, v.ID, marked, p, oracle.R[v.ID], oracle.Prior[v.ID])
					}
					if got[i].t[v.ID] != oracle.T[v.ID] {
						t.Fatalf("seed %d budget %d: v%d T-marked=%v, oracle %v",
							seed, budget, v.ID, got[i].t[v.ID], oracle.T[v.ID])
					}
				}
				r.assertNoViolations(graph.CtxR)
				r.assertNoViolations(graph.CtxT)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Fatalf("seed %d skip %d: budget 0 and budget %d disagree:\n%v\n%v", seed, skip, waveBudget, got[0], got[1])
			}
		}
	}
}

// TestParallelContinuationCollisions: on a stealing 4-PE machine with seven
// vertices in eight on partition 0, the other PEs run out of work and steal
// partition 0's continuations and cut-arc marks while its owner drains the
// list; a stolen task that finds the list taken leaves its item to the
// drainer and returns. Every cycle must complete, leave nothing parked once
// the machine is quiet, and mark what the oracle marks — R, its priorities and
// T — and what the budget-0 deterministic run marks, with the fault injector
// armed as well (it picks arcs by parent, child and epoch, so the two runs
// keep their cycles in step).
func TestParallelContinuationCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel machines; CI runs it under -race on its own")
	}
	const pes, rounds = 4, 3
	var steals int64
	for seed := int64(0); seed < 16; seed++ {
		budget := testBudgets[1+seed%3] // every budget that drains a list
		for _, skip := range []int64{0, 3} {
			build := func(r *rig) ([]*graph.Vertex, []task.Task) {
				rng := rand.New(rand.NewSource(seed))
				return frozenGraphOn(rng, r, 150+rng.Intn(150), func() int {
					if rng.Intn(8) == 0 {
						return 1 + rng.Intn(pes-1)
					}
					return 0
				})
			}
			ref := newRig(t, pes, seed, false).taskPerArc()
			ref.marker.SetFaultSkipMark(skip)
			refVs, refTasks := build(ref)

			r := newRigIn(t, sched.Parallel, pes, seed, false)
			r.marker.budget = budget
			r.marker.SetFaultSkipMark(skip)
			vs, tasks := build(r)
			oracle := analysis.Analyze(r.store.Snapshot(), vs[0].ID, tasks)
			r.mach.Start()
			for round := range rounds {
				want, got := ref.markBoth(refVs, refTasks), r.markBoth(vs, tasks)
				where := fmt.Sprintf("seed %d skip %d budget %d round %d", seed, skip, budget, round)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the parallel run and budget 0 disagree:\n%v\n%v", where, got, want)
				}
				for _, v := range vs {
					if p, marked := got.prior[v.ID]; skip == 0 &&
						(marked != oracle.R[v.ID] || p != oracle.Prior[v.ID] || got.t[v.ID] != oracle.T[v.ID]) {
						t.Fatalf("%s: v%d R-marked=%v prior=%d T-marked=%v, oracle %v %d %v", where,
							v.ID, marked, p, got.t[v.ID], oracle.R[v.ID], oracle.Prior[v.ID], oracle.T[v.ID])
					}
				}
			}
			r.mach.WaitQuiescent()
			r.marker.EachPending(func(tk task.Task) {
				t.Errorf("seed %d skip %d: %v parked on a quiet machine", seed, skip, tk)
			})
			r.mach.Stop()
			steals += r.counters.StolenTasks.Load()
		}
	}
	if steals == 0 {
		t.Error("no task was stolen: the collisions went untested")
	}
}

// TestWaveBounds states "marking scales" as inequalities and checks them per
// phase on frozen graphs over 1–4 partitions, in both contexts, at every
// budget. A mark body runs once per root and once per arc out of a marked
// vertex (again for each arc of a vertex Figure 5-1 re-marks). A marking
// message crosses a partition boundary at most twice per cut arc — a mark
// over, a return back — so the traffic follows the cut, not the graph. And
// the tasks are ROADMAP item 5's count: the cut arcs' marks and returns,
// plus, on each partition the phase visits, one task to start and one
// continuation per budget its items spend. The cut counts twice because a
// return crosses back as a task of its own unless a drain of its partition
// takes it in: seed 95's M_T at budget 256, with no re-mark, runs 17 marks
// and 16 returns as tasks over 23 cut arcs and 4 partitions.
//
// A partition's list is best-first and outlives the task that filled it, so
// on one partition a vertex is first reached at its final priority and no
// phase re-marks; M_T has one priority and never does. Across a cut a vital
// mark can still arrive after its partition has marked the vertex eager.
// These graphs, random over every request kind, have such cuts: there the
// re-marks are bounded by what Figure 5-1 allows — a vertex is raised at most
// twice, reserve to eager to vital — their traffic is allowed for once per
// phase, and the seeds in zeroRemarks, where none arises, pin it at zero.
func TestWaveBounds(t *testing.T) {
	// Multi-partition M_R phases at a budget that drains lists, with more
	// than one vertex marked and no re-mark.
	zeroRemarks := map[int64]bool{5: true, 7: true, 21: true, 22: true, 25: true, 38: true, 42: true,
		43: true, 47: true, 54: true, 63: true, 89: true, 95: true, 101: true, 109: true}
	rootsOnly := 0 // phases the one-partition equality was checked on
	for seed := int64(0); seed < 120; seed++ {
		budget := testBudgets[(seed/4)%int64(len(testBudgets))]
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 1+int(seed%4), seed, false)
		r.marker.budget = budget
		vs, tasks := frozenGraph(rng, r, 10+rng.Intn(70))

		for _, ctx := range []graph.Ctx{graph.CtxR, graph.CtxT} {
			roots := []Root{{ID: vs[0].ID, Prior: graph.PriorVital}}
			if ctx == graph.CtxT {
				roots = endpointRoots(tasks)
			}
			before, upBefore := r.counters.Snapshot(), r.marker.Upgrades(ctx)
			r.runCycle(ctx, roots...)
			d := r.counters.Snapshot().Sub(before)
			upgrades := r.marker.Upgrades(ctx) - upBefore
			where := fmt.Sprintf("seed %d ctx %v budget %d", seed, ctx, budget)

			// Marked vertices, arcs out of them, those that leave the
			// partition, the widest fan-out, and the visits each partition's
			// list runs (re-marks aside).
			var marked, arcs, cut, maxDeg int64
			visits := make([]int64, r.mach.PEs())
			for _, root := range roots {
				visits[r.store.PartitionOf(root.ID)]++
			}
			epoch := r.marker.Epoch(ctx)
			for _, v := range vs {
				if v.CtxOf(ctx).StateAt(epoch) != graph.Marked {
					continue
				}
				marked++
				children := v.Args()
				if ctx == graph.CtxT {
					children = v.TaskChildren(nil)
				}
				arcs += int64(len(children))
				maxDeg = max(maxDeg, int64(len(children)))
				for _, c := range children {
					visits[r.store.PartitionOf(c)]++
					if r.store.PartitionOf(c) != int(v.Part) {
						cut++
					}
				}
			}
			nRoots := int64(len(roots))

			mustBeZero := ctx == graph.CtxT || budget > 0 && (r.mach.PEs() == 1 || zeroRemarks[seed])
			if mustBeZero && upgrades != 0 || upgrades > 2*marked {
				t.Errorf("%s: %d re-marks over %d marked vertices on %d partitions", where, upgrades, marked, r.mach.PEs())
			}
			if lo, hi := nRoots+arcs, nRoots+arcs+upgrades*maxDeg; d.MarkVisits < lo || d.MarkVisits > hi {
				t.Errorf("%s: %d mark visits, want %d roots + %d arcs (+ at most %d upgrades × %d)",
					where, d.MarkVisits, nRoots, arcs, upgrades, maxDeg)
			}
			// What the re-marks add: each visit again is a mark and its
			// return, and each re-mark returns to its old parent.
			remark := 2*(d.MarkVisits-nRoots-arcs) + upgrades
			// At budget 0 a root's return to rootpar is a task too,
			// addressed to partition 0.
			if hi := 2*cut + remark + nRoots; d.RemoteMessages > hi {
				t.Errorf("%s: %d remote messages for %d cut arcs (bound %d)", where, d.RemoteMessages, cut, hi)
			}
			// Every visit sends one return, so a partition's list runs twice
			// its visits in items; budget 0 runs one item per task. A re-mark
			// item can cross the cut and spend budget: two tasks at most.
			per := int64(max(budget, 1))
			hi := 2*cut + 2*remark
			for _, n := range visits {
				if n > 0 {
					hi += 1 + (2*n+per-1)/per
				}
			}
			if tasks := d.MarkTasks + d.ReturnTasks; tasks > hi {
				t.Errorf("%s: %d marks and returns ran as tasks, bound %d (%d cut arcs, visits by partition %v)",
					where, tasks, hi, cut, visits)
			}
			if budget == 0 && d.MarkTasks != d.MarkVisits {
				t.Errorf("%s: %d mark tasks, %d visits; budget 0 is one task per arc", where, d.MarkTasks, d.MarkVisits)
			}
			// Within the budget, one partition is one task: the continuation
			// its roots queued.
			if budget == waveBudget && r.mach.PEs() == 1 && 2*d.MarkVisits <= waveBudget {
				rootsOnly++
				if d.MarkTasks != 1 || d.ReturnTasks != 0 {
					t.Errorf("%s: %d mark and %d return tasks on one partition, want one continuation and nothing else",
						where, d.MarkTasks, d.ReturnTasks)
				}
			}
		}
	}
	if rootsOnly == 0 {
		t.Error("no phase fit one partition and one budget: the one-task equality went unchecked")
	}
}

// listOfLists builds a frozen list of `outer` lists of `inner` integers —
// 2·outer·inner + outer + 1 vertices — the outer spine on partition 0 and
// each inner list whole on one partition, as allocation at v.Part leaves a
// structure a program built: most arcs local, one cut arc per inner list.
func listOfLists(r *rig, outer, inner int) *graph.Vertex {
	parts := r.mach.PEs()
	list := func(part, n int, elem func(i int) *graph.Vertex) *graph.Vertex {
		tail := r.vertexOn(part, graph.KindNil)
		for i := n - 1; i >= 0; i-- {
			cell := r.vertexOn(part, graph.KindCons)
			r.edge(cell, elem(i), graph.ReqNone)
			r.edge(cell, tail, graph.ReqNone)
			tail = cell
		}
		return tail
	}
	return list(0, outer, func(i int) *graph.Vertex {
		part := i % parts
		return list(part, inner, func(int) *graph.Vertex { return r.vertexOn(part, graph.KindInt) })
	})
}

// BenchmarkMarkWave is one M_R cycle over a frozen list of lists: 100 lists
// of 49 (10k vertices), on one partition (no cut) and on four, and four lists
// of 2000, one per partition, so every partition's list spends the budget
// many times over. The four-partition shapes run again on the store a seeded
// dgr machine has (store=seeded: serial, so a vertex takes no lock of its
// own). Each runs at budget 0 (one task per arc)
// and at the shipped budget, and reports ns and executed tasks per mark visit
// and the continuations each phase queued.
func BenchmarkMarkWave(b *testing.B) {
	seeded := graph.Config{Partitions: 4, Serial: true}
	for _, shape := range []struct {
		name                string
		parts, outer, inner int
		store               graph.Config // zero: the rig's
	}{
		{"lists=100x49/parts=1", 1, 100, 49, graph.Config{}},
		{"lists=100x49/parts=4", 4, 100, 49, graph.Config{}},
		{"lists=4x2000/parts=4", 4, 4, 2000, graph.Config{}},
		{"lists=100x49/parts=4/store=seeded", 4, 100, 49, seeded},
		{"lists=4x2000/parts=4/store=seeded", 4, 4, 2000, seeded},
	} {
		for _, budget := range []int{0, waveBudget} {
			b.Run(fmt.Sprintf("%s/budget=%d", shape.name, budget), func(b *testing.B) {
				r := newRig(b, shape.parts, 1, false)
				if shape.store.Partitions > 0 {
					r = newRigOn(b, shape.store, sched.Deterministic, 1, false)
				}
				r.marker.budget = budget
				var continuations int64
				d := NewDispatcher(r.marker, nil)
				r.mach.SetHandler(handlerFunc(func(pe int, t task.Task) {
					if IsContinuation(t) {
						continuations++
					}
					d.Handle(pe, t)
				}))
				root := Root{ID: listOfLists(r, shape.outer, shape.inner).ID, Prior: graph.PriorVital}
				r.runCycle(graph.CtxR, root) // warm: pools, lists, arena
				before, contBefore := r.counters.Snapshot(), continuations
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.runCycle(graph.CtxR, root)
				}
				b.StopTimer()
				s := r.counters.Snapshot().Sub(before)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.MarkVisits), "ns/visit")
				b.ReportMetric(float64(s.TasksExecuted)/float64(s.MarkVisits), "tasks/visit")
				b.ReportMetric(float64(continuations-contBefore)/float64(b.N), "continuations/phase")
			})
		}
	}
}

// handlerFunc adapts a function to sched.Handler.
type handlerFunc func(int, task.Task)

func (f handlerFunc) Handle(pe int, t task.Task) { f(pe, t) }

// TestWaveListMatchesSliceModel drives a drain — a wave and its return
// register — and four plain slices, one per class, with the same random
// pushes (runs of consecutive returns among them), pops, clears and takes,
// past several chunks of a class, and requires the same items in the same
// order throughout: the held return is the top of the returns' slice. Takes
// and clears also come while the register holds a return, the take through
// the drain as Handle's is, the clear after the drain has taken in an empty
// inbox. Then a wave back at a peak it reached before allocates nothing.
func TestWaveListMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var w, o, none wave
	d := drain{w: &w}
	var model, omodel [4][]item
	mk := func(op, class int) item {
		c, src, epoch := graph.Ctx(op&1), graph.VertexID(op+7), uint64(1+op%5)<<40|uint64(op)
		if class == 0 {
			return returnItem(c, src, graph.VertexID(op), epoch)
		}
		prior := uint8(4 - class)
		if class == 3 {
			prior = uint8(op & 1) // M_T's marks have priority 0
		}
		return markItem(c, src, graph.VertexID(op), prior, epoch)
	}
	class := func() int { // mostly the lowest priority, where the long lists are
		if k := rng.Intn(10); k < 4 {
			return k
		}
		return 3
	}
	items := func() (out []item) { // the list with the register in its place
		w.eachOf(0, func(it item) { out = append(out, it) })
		if d.held {
			out = append(out, d.ret)
		}
		for i := 1; i < len(w.lifo); i++ {
			w.eachOf(i, func(it item) { out = append(out, it) })
		}
		return out
	}
	flat := func(m *[4][]item) (out []item) {
		for _, l := range m {
			out = append(out, l...)
		}
		return out
	}
	var heldTakes, heldClears int
	for op := 1; op <= 20000; op++ {
		switch k := rng.Intn(100); {
		case k < 50:
			c := class()
			d.push(mk(op, c))
			model[c] = append(model[c], mk(op, c))
		case k < 53:
			for i := range 2 + rng.Intn(8) {
				d.push(mk(op+i, 0))
				model[0] = append(model[0], mk(op+i, 0))
			}
		case k < 97:
			got, ok := d.pop()
			c := 0
			for c < 4 && len(model[c]) == 0 {
				c++
			}
			if ok != (c < 4) {
				t.Fatalf("op %d: pop ok=%v, model %v", op, ok, model)
			}
			if ok {
				if want := model[c][len(model[c])-1]; got != want {
					t.Fatalf("op %d: pop = %v, want %v", op, got, want)
				}
				model[c] = model[c][:len(model[c])-1]
			}
		case k < 98:
			if d.held {
				heldTakes++
			}
			for range rng.Intn(600) {
				c := class()
				o.push(mk(-op, c))
				omodel[c] = append(omodel[c], mk(-op, c))
			}
			d.take(&o)
			for c := range model {
				model[c] = append(model[c], omodel[c]...)
				omodel[c] = omodel[c][:0]
			}
			if !o.empty() {
				t.Fatalf("op %d: take left items on the wave it took", op)
			}
		default:
			if d.held {
				heldClears++
			}
			d.take(&none)
			w.clear()
			model = [4][]item{}
		}
		want := flat(&model)
		if w.empty() && !d.held != (len(want) == 0) {
			t.Fatalf("op %d: empty=%v held=%v with %d items", op, w.empty(), d.held, len(want))
		}
		if op%101 == 0 && len(want) > 0 && !reflect.DeepEqual(items(), want) {
			t.Fatalf("op %d: drain %v, model %v", op, items(), want)
		}
	}
	if w.deep == nil || len(w.deep.full[3])+len(w.deep.spare) < 3 {
		t.Fatal("the wave's lowest class never held more than three chunks")
	}
	if heldTakes == 0 || heldClears == 0 {
		t.Fatalf("%d takes and %d clears came while a return was held; want some of each", heldTakes, heldClears)
	}
	w.clear()
	for range 4 * waveChunk {
		w.push(mk(1, 3))
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for range 4 * waveChunk {
			w.pop()
		}
		for range 4 * waveChunk {
			w.push(mk(1, 3))
		}
	}); allocs != 0 {
		t.Fatalf("a warm wave allocated %.1f objects per peak", allocs)
	}
}

// TestWaveItem: an item is a mark or return task in 16 bytes. Every kind,
// context and priority, from rootpar and from the last id, at epochs 1,
// 2³²+1 and 2⁶⁰−1, goes to a task and back unchanged, and markItem and
// returnItem pack what spawnMark and spawnReturn spawned as tasks. The
// register lives in the drain, so a partition's slot stays within 304 bytes.
// The CI census prints both sizes.
func TestWaveItem(t *testing.T) {
	for _, epoch := range []uint64{1, 1<<32 + 1, 1<<itemEpochBits - 1} {
		for _, kind := range []task.Kind{task.Mark, task.Return} {
			for _, c := range []graph.Ctx{graph.CtxR, graph.CtxT} {
				for prior := range uint8(4) {
					for _, src := range []graph.VertexID{graph.NilVertex, ^graph.VertexID(0)} {
						tk := task.Task{Kind: kind, Src: src, Dst: 5, Ctx: c, Prior: prior, Epoch: epoch}
						it := itemOf(tk)
						if got := it.task(); got != tk {
							t.Fatalf("%v → %v → %v", tk, it, got)
						}
						if back := itemOf(it.task()); back != it {
							t.Fatalf("%v → %v → %v", it, it.task(), back)
						}
						if kind == task.Mark && it != markItem(c, src, 5, prior, epoch) {
							t.Fatalf("markItem(%v, %d, 5, %d, %d) != %v", c, src, prior, epoch, it)
						}
						if kind == task.Return && prior == 0 && it != returnItem(c, src, 5, epoch) {
							t.Fatalf("returnItem(%v, %d, 5, %d) != %v", c, src, epoch, it)
						}
					}
				}
			}
		}
	}
	item, slot := unsafe.Sizeof(item{}), unsafe.Sizeof(partSlot{})
	t.Logf("census: Sizeof(item)=%d Sizeof(partSlot)=%d", item, slot)
	if item != 16 {
		t.Errorf("Sizeof(item) = %d, want 16", item)
	}
	if slot > 304 {
		t.Errorf("Sizeof(partSlot) = %d, want at most 304", slot)
	}
}

// TestEpochStopsShortOf2to60: an item holds 60 bits of its epoch, so
// BeginCycle refuses the cycle that would reach 2⁶⁰. A cycle at 2⁶⁰−1 still
// marks through the wave and completes; the next one panics and leaves the
// epoch where it was.
func TestEpochStopsShortOf2to60(t *testing.T) {
	const last = 1<<itemEpochBits - 1
	r := newRig(t, 2, 1, false)
	a, b := r.vertexOn(0, graph.KindApply), r.vertexOn(1, graph.KindInt)
	r.edge(a, b, graph.ReqVital)
	r.marker.ctxs[graph.CtxR].epoch.Store(last - 1)
	r.runCycle(graph.CtxR, Root{ID: a.ID, Prior: graph.PriorVital})
	if e := r.marker.Epoch(graph.CtxR); e != last {
		t.Fatalf("epoch %d, want %d", e, uint64(last))
	}
	r.assertMarked(graph.CtxR, a, b)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("BeginCycle opened a cycle at epoch 2^60")
			}
		}()
		r.marker.BeginCycle(graph.CtxR)
	}()
	if e := r.marker.Epoch(graph.CtxR); e != last {
		t.Fatalf("a refused BeginCycle left epoch %d, want %d", e, uint64(last))
	}
}
