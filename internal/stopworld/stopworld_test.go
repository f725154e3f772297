package stopworld

import (
	"testing"

	"dgr/internal/graph"
)

func TestCollect(t *testing.T) {
	s := graph.NewStore(graph.Config{Partitions: 2})
	alloc := func() *graph.Vertex {
		v, err := s.Alloc(0, graph.KindApply, 0)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	edge := func(a, b *graph.Vertex) {
		a.Lock()
		a.AddArg(b.ID, graph.ReqNone)
		a.Unlock()
	}
	root := alloc()
	live := alloc()
	g1 := alloc()
	g2 := alloc()
	cyc := alloc()
	edge(root, live)
	edge(g1, g2)
	edge(cyc, cyc) // cyclic garbage: stop-the-world marking reclaims it too

	res := Collect(s, root.ID)
	if res.Marked != 2 {
		t.Fatalf("marked = %d, want 2", res.Marked)
	}
	if res.Reclaimed != 3 {
		t.Fatalf("reclaimed = %d, want 3", res.Reclaimed)
	}
	if !s.IsFree(g1.ID) || !s.IsFree(g2.ID) || !s.IsFree(cyc.ID) {
		t.Fatal("garbage not reclaimed")
	}
	if s.IsFree(root.ID) || s.IsFree(live.ID) {
		t.Fatal("live vertices reclaimed")
	}
	if res.Pause <= 0 {
		t.Fatal("pause not measured")
	}
}

func TestCollectMultipleRoots(t *testing.T) {
	s := graph.NewStore(graph.Config{Partitions: 1})
	a, _ := s.Alloc(0, graph.KindApply, 0)
	b, _ := s.Alloc(0, graph.KindApply, 0)
	c, _ := s.Alloc(0, graph.KindApply, 0)
	_ = c
	res := Collect(s, a.ID, b.ID)
	if res.Marked != 2 || res.Reclaimed != 1 {
		t.Fatalf("marked=%d reclaimed=%d, want 2/1", res.Marked, res.Reclaimed)
	}
}
