package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"dgr/internal/graph"
)

// vertices allocates n vertices and returns them in ascending ID order.
func (r *rig) vertices(n int) []*graph.Vertex {
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		vs[i] = r.vertex(graph.KindApply)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	return vs
}

// assertLockOrder fails unless the set holds exactly want, in that order.
func assertLockOrder(t *testing.T, s *lockSet, want []*graph.Vertex) {
	t.Helper()
	got := s.members()
	if len(got) != len(want) {
		t.Fatalf("lock set has %d members, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("member %d is v%d, want v%d", i, got[i].ID, want[i].ID)
		}
	}
}

// assertHeldThenReleased checks, as far as a sync.Mutex lets an outsider see,
// that every vertex in vs is locked now and free after unlock: a goroutine
// per vertex blocks in Lock, none gets through while the set is held, all get
// through once it is released (the test hangs otherwise). Unlocking a member
// twice is a runtime fatal error, so "exactly once" is covered too.
func assertHeldThenReleased(t *testing.T, vs []*graph.Vertex, unlock func()) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	through := 0
	for _, v := range vs {
		wg.Add(1)
		go func(v *graph.Vertex) {
			defer wg.Done()
			v.Lock()
			mu.Lock()
			through++
			mu.Unlock()
			v.Unlock()
		}(v)
	}
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	mu.Lock()
	early := through
	mu.Unlock()
	if early != 0 {
		t.Fatalf("%d of %d vertices were lockable while the set was held", early, len(vs))
	}
	unlock()
	wg.Wait()
}

func TestLockSetOrder(t *testing.T) {
	r := newRig(t, 1, 1, false)
	vs := r.vertices(4)
	a, b, c, d := vs[0], vs[1], vs[2], vs[3]

	for _, args := range [][]*graph.Vertex{
		{a, b, c, d},
		{d, c, b, a},
		{c, a, d, b},
		{b, nil, d, b, a, nil, c, a, d}, // nils skipped, duplicates taken once
	} {
		s := lockVertices(args...)
		assertLockOrder(t, &s, vs)
		assertHeldThenReleased(t, vs, s.unlock)
	}

	var empty lockSet
	empty.add(nil)
	empty.lock()
	empty.unlock()
	assertLockOrder(t, &empty, nil)
}

func TestLockSetPastInlineCapacity(t *testing.T) {
	r := newRig(t, 1, 1, false)
	for _, n := range []int{lockSetInline, lockSetInline + 1, 2*lockSetInline + 3} {
		vs := r.vertices(n)
		// Descending with every vertex repeated: the worst insertion order.
		var args []*graph.Vertex
		for i := n - 1; i >= 0; i-- {
			args = append(args, vs[i], vs[i])
		}
		s := lockVertices(args...)
		assertLockOrder(t, &s, vs)
		for _, v := range vs {
			if s.find(v.ID) != v {
				t.Fatalf("n=%d: find(v%d) missed", n, v.ID)
			}
		}
		if s.find(graph.NilVertex) != nil {
			t.Fatalf("n=%d: find(nil vertex) hit", n)
		}
		assertHeldThenReleased(t, vs, s.unlock)
	}
}

// serialVertices allocates n vertices of a serial store (a seeded
// machine's), in ascending ID order.
func serialVertices(tb testing.TB, n int) []*graph.Vertex {
	tb.Helper()
	store := graph.NewStore(graph.Config{Partitions: 1, Capacity: n, Serial: true})
	vs := make([]*graph.Vertex, n)
	for i := range vs {
		v, err := store.Alloc(0, graph.KindApply, 0)
		if err != nil {
			tb.Fatal(err)
		}
		vs[i] = v
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	return vs
}

// TestLockSetSerial: on serial vertices the set keeps its members in the
// order they were added, once each, inline or spilled, and find still finds
// them.
func TestLockSetSerial(t *testing.T) {
	for _, n := range []int{4, lockSetInline + 3} {
		vs := serialVertices(t, n)
		// Descending, every vertex twice, with nils: the set is the first
		// occurrences, in argument order.
		var args, want []*graph.Vertex
		for i := n - 1; i >= 0; i-- {
			args = append(args, vs[i], nil, vs[i])
			want = append(want, vs[i])
		}
		s := lockVertices(args...)
		assertLockOrder(t, &s, want)
		for _, v := range vs {
			if s.find(v.ID) != v {
				t.Fatalf("n=%d: find(v%d) missed", n, v.ID)
			}
		}
		if s.find(graph.NilVertex) != nil {
			t.Fatalf("n=%d: find(nil vertex) hit", n)
		}
		s.unlock()
	}
}

// TestLockSetNoInversion locks overlapping sets from two goroutines in
// opposite argument order. Were the set to lock in argument order the two
// would deadlock within a few rounds; run under -race in CI.
func TestLockSetNoInversion(t *testing.T) {
	r := newRig(t, 1, 1, false)
	vs := r.vertices(6)
	fwd := []*graph.Vertex{vs[0], vs[1], vs[2], vs[3], vs[4]}
	rev := []*graph.Vertex{vs[5], vs[4], vs[3], vs[2], vs[1]}
	shared := 0
	var wg sync.WaitGroup
	for _, set := range [][]*graph.Vertex{fwd, rev} {
		wg.Add(1)
		go func(set []*graph.Vertex) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := lockVertices(set...)
				shared++ // guarded by the overlap; -race checks it
				s.unlock()
			}
		}(set)
	}
	wg.Wait()
	if shared != 2000 {
		t.Fatalf("shared = %d, want 2000", shared)
	}
}

// rewriteShape builds the vertices of one combinator contraction: the redex,
// nFresh fresh applies and nOps existing operands, plus the splice that
// wires every fresh vertex and the redex the way a contraction does.
func rewriteShape(r *rig, nFresh, nOps int) (v *graph.Vertex, fresh, ops []*graph.Vertex, splice func()) {
	v = r.vertex(graph.KindApply)
	fresh = r.vertices(nFresh)
	ops = r.vertices(nOps)
	splice = func() {
		last := ops[nOps-1].ID
		for i, n := range fresh {
			n.SetArgs(ops[i].ID, last)
		}
		v.SetArgs(fresh[0].ID, ops[nOps-2].ID)
	}
	return v, fresh, ops, splice
}

// TestPrimitivesDoNotAllocate pins the tentpole at the primitive level: with
// the vertices' own slices at size, a cooperating primitive outside a marking
// cycle makes no heap allocation — no lock slice, no sort closure, no map.
func TestPrimitivesDoNotAllocate(t *testing.T) {
	r := newRig(t, 1, 1, false)
	x, y := r.vertex(graph.KindApply), r.vertex(graph.KindApply)
	r.edge(x, y, graph.ReqNone)
	v, c := r.vertex(graph.KindApply), r.vertex(graph.KindInt)
	r.edge(v, c, graph.ReqNone)
	leaf := r.vertex(graph.KindPrimApp)
	rv, fresh, ops, splice := rewriteShape(r, 3, 4) // S': 3 fresh + 4 existing

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"RegisterRequest+CompleteRequest", func() {
			r.mut.RegisterRequest(x, y, graph.ReqVital)
			r.mut.CompleteRequest(x, y)
		}},
		{"AddRequesterCoop", func() {
			r.mut.AddRequesterCoop(y, x, graph.ReqVital)
			r.mut.CompleteRequest(x, y)
		}},
		{"SetRequestKind", func() { r.mut.SetRequestKind(x, y, graph.ReqEager) }},
		{"CollapseToInd", func() { r.mut.CollapseToInd(v, c) }},
		{"RelabelLeaf", func() { r.mut.RelabelLeaf(leaf, graph.KindInt, 7) }},
		{"Rewrite/Sprime", func() { r.mut.Rewrite(rv, fresh, ops, splice) }},
	} {
		tc.fn() // first call grows the vertices' own slices
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, n)
		}
	}
	if n := r.mach.Inflight(); n != 0 {
		t.Errorf("%d tasks spawned outside a marking cycle", n)
	}
}

// BenchmarkLockSet: a parallel machine's set (locked, kept in ID order) and
// a seeded machine's (serial vertices: no lock, no order).
func BenchmarkLockSet(b *testing.B) {
	for _, serial := range []bool{false, true} {
		for _, n := range []int{1, 2, 3, 8} {
			b.Run(fmt.Sprintf("serial=%v/%d", serial, n), func(b *testing.B) {
				var vs []*graph.Vertex
				if serial {
					vs = serialVertices(b, n)
				} else {
					vs = newRig(b, 1, 1, false).vertices(n)
				}
				// Descending arguments: every insertion shifts the whole set.
				slices.Reverse(vs)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s := lockVertices(vs...)
					s.unlock()
				}
			})
		}
	}
}

func BenchmarkRewrite(b *testing.B) {
	for _, shape := range []struct {
		name        string
		fresh, nOps int
	}{{"B", 1, 3}, {"S", 2, 3}, {"Sprime", 3, 4}} {
		b.Run(shape.name, func(b *testing.B) {
			r := newRig(b, 1, 1, false)
			v, fresh, ops, splice := rewriteShape(r, shape.fresh, shape.nOps)
			r.mut.Rewrite(v, fresh, ops, splice) // grows the vertices' own slices
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.mut.Rewrite(v, fresh, ops, splice)
			}
		})
	}
}
