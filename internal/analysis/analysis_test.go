package analysis

import (
	"math/rand"
	"testing"

	"dgr/internal/graph"
	"dgr/internal/task"
)

// build constructs a store with n apply vertices and returns them.
func build(t *testing.T, n int) (*graph.Store, []*graph.Vertex) {
	t.Helper()
	s := graph.NewStore(graph.Config{Partitions: 2})
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		v, err := s.Alloc(i%2, graph.KindApply, 0)
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	return s, vs
}

func edge(a, b *graph.Vertex, rk graph.ReqKind) {
	a.Lock()
	a.AddArg(b.ID, rk)
	a.Unlock()
}

func request(src, dst *graph.Vertex, rk graph.ReqKind) {
	dst.Lock()
	dst.AddRequester(src.ID, rk)
	dst.Unlock()
}

func TestAnalyzePriorities(t *testing.T) {
	s, vs := build(t, 6)
	root, a, b, c, d, orphan := vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]
	edge(root, a, graph.ReqVital) // prior 3
	edge(root, b, graph.ReqEager) // prior 2
	edge(b, c, graph.ReqVital)    // min(2,3) = 2
	edge(c, d, graph.ReqNone)     // min(2,1) = 1
	_ = orphan                    // unreachable: garbage

	res := Analyze(s.Snapshot(), root.ID, nil)
	wantPrior := map[graph.VertexID]uint8{
		root.ID: 3, a.ID: 3, b.ID: 2, c.ID: 2, d.ID: 1,
	}
	for id, want := range wantPrior {
		if got := res.Prior[id]; got != want {
			t.Errorf("prior(v%d) = %d, want %d", id, got, want)
		}
	}
	if !res.Rv[root.ID] || !res.Rv[a.ID] || !res.Re[b.ID] || !res.Re[c.ID] || !res.Rr[d.ID] {
		t.Fatalf("set membership wrong: %+v", res.Prior)
	}
	if !res.Gar[orphan.ID] {
		t.Fatal("orphan not garbage")
	}
	if err := res.CheckVenn(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeMaxOverPaths(t *testing.T) {
	// shared reachable via eager and vital paths: prior = 3 (max of mins).
	s, vs := build(t, 4)
	root, e, v, shared := vs[0], vs[1], vs[2], vs[3]
	edge(root, e, graph.ReqEager)
	edge(root, v, graph.ReqVital)
	edge(e, shared, graph.ReqVital)
	edge(v, shared, graph.ReqVital)

	res := Analyze(s.Snapshot(), root.ID, nil)
	if got := res.Prior[shared.ID]; got != 3 {
		t.Fatalf("prior(shared) = %d, want 3", got)
	}
}

func TestAnalyzeT(t *testing.T) {
	s, vs := build(t, 6)
	a, b, c, d, e, f := vs[0], vs[1], vs[2], vs[3], vs[4], vs[5]
	// Task <a,b>. From b: requested(b) = {c}; args(b) − req-args = {d}.
	request(c, b, graph.ReqVital)
	edge(b, d, graph.ReqNone)
	edge(b, e, graph.ReqVital) // requested: NOT task-traceable
	_ = f                      // unrelated

	tasks := []task.Task{{Kind: task.Demand, Src: a.ID, Dst: b.ID, Req: graph.ReqVital}}
	res := Analyze(s.Snapshot(), a.ID, tasks)

	for _, want := range []*graph.Vertex{a, b, c, d} {
		if !res.T[want.ID] {
			t.Errorf("v%d should be in T", want.ID)
		}
	}
	for _, not := range []*graph.Vertex{e, f} {
		if res.T[not.ID] {
			t.Errorf("v%d should not be in T", not.ID)
		}
	}
}

func TestAnalyzeDeadlock(t *testing.T) {
	// Figure 3-1: x = x+1. root vitally depends on w, w on itself; no task
	// can reach w.
	s, vs := build(t, 4)
	root, w, live1, live2 := vs[0], vs[1], vs[2], vs[3]
	edge(root, w, graph.ReqVital)
	edge(w, w, graph.ReqVital)
	request(root, w, graph.ReqVital)
	request(w, w, graph.ReqVital)
	edge(root, live1, graph.ReqVital)
	edge(live1, live2, graph.ReqVital)
	request(live1, live2, graph.ReqVital)

	tasks := []task.Task{
		{Kind: task.Demand, Src: live1.ID, Dst: live2.ID, Req: graph.ReqVital},
		{Kind: task.Demand, Src: graph.NilVertex, Dst: root.ID, Req: graph.ReqVital},
	}
	res := Analyze(s.Snapshot(), root.ID, tasks)
	if !res.DLv[w.ID] {
		t.Fatal("w should be deadlocked")
	}
	if res.DLv[root.ID] || res.DLv[live1.ID] || res.DLv[live2.ID] {
		t.Fatalf("false deadlocks: %v", res.DLv)
	}
	if err := res.CheckVenn(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestClassify(t *testing.T) {
	s, vs := build(t, 5)
	root, v, e, r, g := vs[0], vs[1], vs[2], vs[3], vs[4]
	edge(root, v, graph.ReqVital)
	edge(root, e, graph.ReqEager)
	edge(root, r, graph.ReqNone)
	_ = g // garbage

	res := Analyze(s.Snapshot(), root.ID, nil)
	tests := []struct {
		dst  graph.VertexID
		want Class
	}{
		{v.ID, ClassVital},
		{e.ID, ClassEager},
		{r.ID, ClassReserve},
		{g.ID, ClassIrrelevant},
	}
	for _, tt := range tests {
		got := res.Classify(task.Task{Kind: task.Demand, Dst: tt.dst})
		if got != tt.want {
			t.Errorf("classify(dst=v%d) = %v, want %v", tt.dst, got, tt.want)
		}
	}

	all := res.ClassifyAll([]task.Task{
		{Kind: task.Demand, Dst: v.ID},
		{Kind: task.Demand, Dst: e.ID},
		{Kind: task.Demand, Dst: r.ID},
		{Kind: task.Demand, Dst: g.ID},
		{Kind: task.Mark, Dst: v.ID}, // marking tasks excluded
	})
	if len(all[ClassVital]) != 1 || len(all[ClassEager]) != 1 ||
		len(all[ClassReserve]) != 1 || len(all[ClassIrrelevant]) != 1 {
		t.Fatalf("ClassifyAll = %v", all)
	}
}

func TestClassString(t *testing.T) {
	if ClassVital.String() != "vital" || ClassIrrelevant.String() != "irrelevant" || Class(0).String() != "other" {
		t.Fatal("class names wrong")
	}
}

func TestFreeSetExcludedFromGarbage(t *testing.T) {
	s := graph.NewStore(graph.Config{Partitions: 1})
	root, err := s.Alloc(0, graph.KindApply, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := Analyze(s.Snapshot(), root.ID, nil)
	// The other 63 vertices of root's block remain free; none may be garbage.
	if len(res.F) != 63 {
		t.Fatalf("|F| = %d, want 63", len(res.F))
	}
	if len(res.Gar) != 0 {
		t.Fatalf("|GAR| = %d, want 0", len(res.Gar))
	}
	if err := res.CheckVenn(s.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func TestVennHoldsOnRandomGraphs(t *testing.T) {
	// Property test: Figure 3-3's relationships hold for arbitrary graphs,
	// edge kinds, and task sets.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(30)
		s, vs := build(t, n)
		for i := 0; i < n*2; i++ {
			a := vs[rng.Intn(n)]
			b := vs[rng.Intn(n)]
			edge(a, b, graph.ReqKind(rng.Intn(3)))
		}
		for i := 0; i < n/2; i++ {
			request(vs[rng.Intn(n)], vs[rng.Intn(n)], graph.ReqVital)
		}
		var tasks []task.Task
		for i := 0; i < rng.Intn(5); i++ {
			tasks = append(tasks, task.Task{
				Kind: task.Demand,
				Src:  vs[rng.Intn(n)].ID,
				Dst:  vs[rng.Intn(n)].ID,
				Req:  graph.ReqVital,
			})
		}
		snap := s.Snapshot()
		res := Analyze(snap, vs[0].ID, tasks)
		if err := res.CheckVenn(snap); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r, rv, re, rr, _, gar, dl, f := res.Counts()
		if rv+re+rr != r {
			t.Fatalf("trial %d: R not partitioned: %d+%d+%d != %d", trial, rv, re, rr, r)
		}
		if r+gar+f != snap.Len() {
			t.Fatalf("trial %d: V not covered: %d+%d+%d != %d", trial, r, gar, f, snap.Len())
		}
		if dl > rv {
			t.Fatalf("trial %d: |DL|=%d > |R_v|=%d", trial, dl, rv)
		}
	}
}
