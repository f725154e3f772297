package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/task"
)

// frozenGraph wires n vertices, each on a random partition of the rig, with
// 3n random arcs of every request kind and n/3 random requester entries, and
// draws a few demand tasks whose endpoints are M_T's roots. The graph is a
// function of rng alone, so two rigs of one seed hold the same one.
func frozenGraph(rng *rand.Rand, r *rig, n int) (vs []*graph.Vertex, tasks []task.Task) {
	vs = make([]*graph.Vertex, n)
	for i := range vs {
		vs[i] = r.vertexOn(rng.Intn(r.mach.PEs()), graph.KindApply)
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

// TestWaveBounds states "marking scales" as inequalities and checks them per
// cycle on frozen graphs over 1–4 partitions, in both contexts, at every
// budget: a mark body runs once per root and once per arc out of a marked
// vertex (again for each arc of a vertex Figure 5-1 re-marks), and a marking
// message crosses a partition boundary at most twice per cut arc — a mark
// over, a return back — so the traffic follows the cut, not the graph. On
// one partition there is no cut: below the budget the only tasks are the
// roots.
func TestWaveBounds(t *testing.T) {
	rootsOnly := 0 // cycles the one-partition equality was checked on
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
			before := r.counters.Snapshot()
			upBefore := r.marker.ctxs[ctx].upgrades.Load()
			r.runCycle(ctx, roots...)
			d := r.counters.Snapshot().Sub(before)
			upgrades := r.marker.ctxs[ctx].upgrades.Load() - upBefore

			// Arcs out of marked vertices, those that leave the partition,
			// and the widest fan-out (what one re-mark can add).
			var arcs, cut, maxDeg int64
			epoch := r.marker.Epoch(ctx)
			for _, v := range vs {
				if v.CtxOf(ctx).StateAt(epoch) != graph.Marked {
					continue
				}
				children := v.Args
				if ctx == graph.CtxT {
					children = v.TaskChildren(nil)
				}
				arcs += int64(len(children))
				maxDeg = max(maxDeg, int64(len(children)))
				for _, c := range children {
					if r.store.PartitionOf(c) != v.Part {
						cut++
					}
				}
			}
			nRoots := int64(len(roots))
			where := fmt.Sprintf("seed %d ctx %v budget %d", seed, ctx, budget)

			if lo, hi := nRoots+arcs, nRoots+arcs+upgrades*maxDeg; d.MarkVisits < lo || d.MarkVisits > hi {
				t.Errorf("%s: %d mark visits, want %d roots + %d arcs (+ at most %d upgrades × %d)",
					where, d.MarkVisits, nRoots, arcs, upgrades, maxDeg)
			}
			if ctx == graph.CtxT && upgrades != 0 {
				t.Errorf("%s: %d upgrades in a context without priorities", where, upgrades)
			}
			// A rootpar return that is spawned (not absorbed by a wave) is
			// addressed to partition 0 and counts as remote from any other.
			if hi := 2*(cut+upgrades*maxDeg) + nRoots; d.RemoteMessages > hi {
				t.Errorf("%s: %d remote messages for %d cut arcs (bound %d)", where, d.RemoteMessages, cut, hi)
			}
			if d.MarkTasks > d.MarkVisits {
				t.Errorf("%s: %d mark tasks but only %d visits", where, d.MarkTasks, d.MarkVisits)
			}
			if budget == 0 && d.MarkTasks != d.MarkVisits {
				t.Errorf("%s: %d mark tasks, %d visits; budget 0 is one task per arc", where, d.MarkTasks, d.MarkVisits)
			}
			// Every visit sends one return, so a cycle is 2 × visits items:
			// within the budget nothing spills.
			if budget == waveBudget && r.mach.PEs() == 1 && 2*d.MarkVisits <= waveBudget {
				rootsOnly++
				if d.MarkTasks != nRoots || d.ReturnTasks != 0 {
					t.Errorf("%s: %d mark and %d return tasks on one partition, want the %d roots and nothing else",
						where, d.MarkTasks, d.ReturnTasks, nRoots)
				}
			}
		}
	}
	if rootsOnly == 0 {
		t.Error("no cycle fit one partition and one budget: the roots-only equality went unchecked")
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

// BenchmarkMarkWave is one M_R cycle over a frozen 10k-vertex list of lists,
// on one partition (all wave, no cut) and on four, at budget 0 (one task per
// arc) and at the shipped budget: ns and executed tasks per mark visit.
func BenchmarkMarkWave(b *testing.B) {
	for _, parts := range []int{1, 4} {
		for _, budget := range []int{0, waveBudget} {
			b.Run(fmt.Sprintf("parts=%d/budget=%d", parts, budget), func(b *testing.B) {
				r := newRig(b, parts, 1, false)
				r.marker.budget = budget
				root := Root{ID: listOfLists(r, 100, 49).ID, Prior: graph.PriorVital}
				r.runCycle(graph.CtxR, root) // warm: pools, wave, arena
				before := r.counters.Snapshot()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.runCycle(graph.CtxR, root)
				}
				b.StopTimer()
				d := r.counters.Snapshot().Sub(before)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(d.MarkVisits), "ns/visit")
				b.ReportMetric(float64(d.TasksExecuted)/float64(d.MarkVisits), "tasks/visit")
			})
		}
	}
}
