package refcount

import (
	"testing"

	"dgr/internal/graph"
	"dgr/internal/metrics"
)

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

func edge(a, b *graph.Vertex) {
	a.Lock()
	a.AddArg(b.ID, graph.ReqNone)
	a.Unlock()
}

func TestRefcountReclaimsAcyclicGarbage(t *testing.T) {
	s, vs := build(t, 4)
	root, a, b, c := vs[0], vs[1], vs[2], vs[3]
	edge(root, a)
	edge(a, b)
	edge(a, c)

	col := New(s, &metrics.Counters{})
	col.Root(root.ID)
	col.InitFromGraph()

	// Drop root→a: a, b, c all become garbage; RC reclaims the chain.
	root.Lock()
	root.RemoveArg(a.ID)
	root.Unlock()
	col.DropRef(root.ID, a.ID)
	freed := col.Process()
	if freed != 3 {
		t.Fatalf("freed = %d, want 3", freed)
	}
	if !s.IsFree(a.ID) || !s.IsFree(b.ID) || !s.IsFree(c.ID) {
		t.Fatal("chain not reclaimed")
	}
	if s.IsFree(root.ID) {
		t.Fatal("rooted vertex reclaimed")
	}
}

func TestRefcountCannotReclaimCycles(t *testing.T) {
	// The deficiency §4 cites: a detached cycle keeps nonzero counts
	// forever.
	s, vs := build(t, 4)
	root, c1, c2, c3 := vs[0], vs[1], vs[2], vs[3]
	edge(root, c1)
	edge(c1, c2)
	edge(c2, c3)
	edge(c3, c1) // cycle c1→c2→c3→c1

	col := New(s, nil)
	col.Root(root.ID)
	col.InitFromGraph()

	root.Lock()
	root.RemoveArg(c1.ID)
	root.Unlock()
	col.DropRef(root.ID, c1.ID)
	freed := col.Process()
	if freed != 0 {
		t.Fatalf("freed = %d, want 0 (cycles are unreclaimable by RC)", freed)
	}
	if s.IsFree(c1.ID) || s.IsFree(c2.ID) || s.IsFree(c3.ID) {
		t.Fatal("cycle members incorrectly reclaimed")
	}
	// The internal cycle edges keep the counts at exactly 1.
	if col.Count(c1.ID) != 1 || col.Count(c2.ID) != 1 || col.Count(c3.ID) != 1 {
		t.Fatalf("cycle counts = %d %d %d, want 1 1 1",
			col.Count(c1.ID), col.Count(c2.ID), col.Count(c3.ID))
	}
}

func TestRefcountMessageCounting(t *testing.T) {
	s, vs := build(t, 3)
	root, a, b := vs[0], vs[1], vs[2]
	edge(root, a)
	edge(a, b)
	col := New(s, nil)
	col.Root(root.ID)
	col.InitFromGraph()

	// Vertices alternate partitions (Alloc i%2): root and b share one,
	// a the other.
	root.Lock()
	root.RemoveArg(a.ID)
	root.Unlock()
	col.DropRef(root.ID, a.ID)
	col.Process()
	msgs, remote, freed := col.Stats()
	if msgs != 2 || freed != 2 {
		t.Fatalf("msgs=%d freed=%d, want 2/2", msgs, freed)
	}
	if remote != 2 {
		// root(p0)→a(p1) and a(p1)→b(p0) both cross partitions.
		t.Fatalf("remote=%d, want 2", remote)
	}
}

func TestRefcountAddRef(t *testing.T) {
	s, vs := build(t, 3)
	root, a, b := vs[0], vs[1], vs[2]
	edge(root, a)
	col := New(s, nil)
	col.Root(root.ID)
	col.InitFromGraph()

	// New edge a→b then drop root→a: b survives until a's children decs
	// arrive; everything acyclic is reclaimed.
	edge(a, b)
	col.AddRef(a.ID, b.ID)
	root.Lock()
	root.RemoveArg(a.ID)
	root.Unlock()
	col.DropRef(root.ID, a.ID)
	if freed := col.Process(); freed != 2 {
		t.Fatalf("freed = %d, want 2", freed)
	}
}

func TestUnroot(t *testing.T) {
	s, vs := build(t, 2)
	root, a := vs[0], vs[1]
	edge(root, a)
	col := New(s, nil)
	col.Root(root.ID)
	col.InitFromGraph()
	col.Unroot(root.ID)
	if freed := col.Process(); freed != 2 {
		t.Fatalf("freed = %d, want 2", freed)
	}
	col.Unroot(root.ID) // idempotent
	col.Process()
}
