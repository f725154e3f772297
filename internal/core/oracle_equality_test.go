package core

import (
	"math/rand"
	"testing"

	"dgr/internal/analysis"
	"dgr/internal/graph"
	"dgr/internal/task"
)

// TestMarkerMatchesOracleExactly: with the world quiescent (no mutation),
// a completed M_R cycle must mark exactly the oracle's R with exactly the
// oracle's priorities, and a completed M_T cycle must mark exactly T —
// Lemmas 1–4 collapse to set equality.
func TestMarkerMatchesOracleExactly(t *testing.T) { atEachBudget(t, testMarkerMatchesOracleExactly) }

func testMarkerMatchesOracleExactly(t *testing.T, budget int) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 1+int(seed%4), seed, seed%2 == 0)
		r.marker.budget = budget

		n := 10 + rng.Intn(50)
		vs := make([]*graph.Vertex, n)
		for i := range vs {
			vs[i] = r.vertex(graph.KindApply)
		}
		for i := 0; i < n*3; i++ {
			a := vs[rng.Intn(n)]
			b := vs[rng.Intn(n)]
			r.edge(a, b, graph.ReqKind(rng.Intn(3)))
		}
		for i := 0; i < n/3; i++ {
			r.request(vs[rng.Intn(n)], vs[rng.Intn(n)], graph.ReqKind(1+rng.Intn(2)))
		}
		root := vs[0]

		var tasks []task.Task
		for i := 0; i < 1+rng.Intn(4); i++ {
			tasks = append(tasks, task.Task{
				Kind: task.Demand,
				Src:  vs[rng.Intn(n)].ID,
				Dst:  vs[rng.Intn(n)].ID,
				Req:  graph.ReqVital,
			})
		}

		oracle := analysis.Analyze(r.store.Snapshot(), root.ID, tasks)

		// M_R: exact R and priorities.
		r.runCycle(graph.CtxR, Root{ID: root.ID, Prior: graph.PriorVital})
		epochR := r.marker.Epoch(graph.CtxR)
		for _, v := range vs {
			v.Lock()
			st := v.RCtx.StateAt(epochR)
			prior := v.RCtx.PriorAt(epochR)
			v.Unlock()
			if oracle.R[v.ID] != (st == graph.Marked) {
				t.Fatalf("seed %d: v%d R-marked=%v oracle=%v", seed, v.ID, st == graph.Marked, oracle.R[v.ID])
			}
			if want := oracle.Prior[v.ID]; prior != want {
				t.Fatalf("seed %d: v%d prior=%d oracle=%d", seed, v.ID, prior, want)
			}
		}

		// M_T: exact T, rooted at the task endpoints.
		r.runCycle(graph.CtxT, endpointRoots(tasks)...)
		epochT := r.marker.Epoch(graph.CtxT)
		for _, v := range vs {
			v.Lock()
			st := v.TCtx.StateAt(epochT)
			v.Unlock()
			if oracle.T[v.ID] != (st == graph.Marked) {
				t.Fatalf("seed %d: v%d T-marked=%v oracle=%v", seed, v.ID, st == graph.Marked, oracle.T[v.ID])
			}
		}
		r.assertNoViolations(graph.CtxR)
		r.assertNoViolations(graph.CtxT)
	}
}
